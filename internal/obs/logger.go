package obs

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Logger writes one structured logfmt line per (sampled) request:
//
//	ts=2026-08-07T12:00:00.000Z method=POST path=/v1/select workload="DGEMM" status=200 dur_us=152 hit=true
//
// Sampling is 1-in-Every by a single atomic counter: the skip path costs
// one atomic add and allocates nothing, so a daemon under heavy load can
// keep request logging on without the log volume (or the formatting cost)
// scaling with throughput. Lines are formatted into pooled buffers and
// written with one Write call under a mutex, so concurrent handlers never
// interleave partial lines.
type Logger struct {
	w     io.Writer
	every uint64
	now   func() time.Time

	n       atomic.Uint64 // requests offered
	emitted atomic.Uint64 // lines written

	mu   sync.Mutex
	pool sync.Pool // *[]byte
}

// NewLogger returns a request logger writing to w, emitting one line per
// `every` requests. every < 1 means every request; a nil writer returns a
// nil logger, and every method on a nil *Logger is a cheap no-op — callers
// thread one optional pointer instead of branching at each site.
func NewLogger(w io.Writer, every int) *Logger {
	if w == nil {
		return nil
	}
	if every < 1 {
		every = 1
	}
	l := &Logger{w: w, every: uint64(every), now: time.Now}
	l.pool.New = func() any {
		b := make([]byte, 0, 256)
		return &b
	}
	return l
}

// Stats reports (requests offered, lines emitted) — the denominator and
// numerator of the effective sampling rate.
func (l *Logger) Stats() (offered, emitted uint64) {
	if l == nil {
		return 0, 0
	}
	return l.n.Load(), l.emitted.Load()
}

// CacheHitHeader carries a replica's plan-cache outcome ("true" or
// "false") on its /v1/select responses, so a proxy in front of it logs the
// same hit field the replica does.
const CacheHitHeader = "X-Plan-Cache-Hit"

// Request logs one served request, subject to sampling. workload may be
// empty (rendered as ""); dur is the handler's wall time.
func (l *Logger) Request(method, path, workload string, status int, dur time.Duration, hit bool) {
	if l == nil {
		return
	}
	n := l.n.Add(1)
	if n%l.every != 0 {
		return
	}
	bp := l.pool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, "ts="...)
	b = l.now().UTC().AppendFormat(b, "2006-01-02T15:04:05.000Z")
	b = append(b, " method="...)
	b = append(b, method...)
	b = append(b, " path="...)
	b = append(b, path...)
	b = append(b, " workload="...)
	b = strconv.AppendQuote(b, workload)
	b = append(b, " status="...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, " dur_us="...)
	b = strconv.AppendInt(b, dur.Microseconds(), 10)
	b = append(b, " hit="...)
	b = strconv.AppendBool(b, hit)
	b = append(b, '\n')
	l.emitted.Add(1)
	l.mu.Lock()
	l.w.Write(b) //nolint:errcheck // logging is best-effort
	l.mu.Unlock()
	*bp = b
	l.pool.Put(bp)
}

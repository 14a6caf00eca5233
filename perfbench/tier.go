package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one spawned dvfs-served or dvfs-router process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once Wait has returned
	err  error         // Wait's result, valid after done
}

// startDaemon execs bin and waits for its "listening on <addr>" line. It
// keeps draining stderr so the child never blocks on a full pipe.
func startDaemon(name, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// A benchmark that dies must not leave daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				if f := strings.Fields(line[i+len("listening on "):]); len(f) > 0 {
					select {
					case addrCh <- strings.TrimSuffix(f[0], ","):
					default:
					}
				}
			} else {
				fmt.Fprintf(os.Stderr, "[%s] %s\n", name, line)
			}
		}
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addrCh:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening: %v", name, d.err)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not announce its address within 30s", name)
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // the process may already have exited
	<-d.done
}

// stop sends SIGTERM and waits up to grace for the exit, killing the
// process after that. It returns the exit as observed: a drain that fails
// is reported, not hidden.
func (d *daemon) stop(grace time.Duration) string {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Sprintf("%s: SIGTERM failed (%v), killed", d.name, err)
	}
	start := time.Now()
	select {
	case <-d.done:
	case <-time.After(grace):
		d.kill()
		return fmt.Sprintf("%s: no exit within %v of SIGTERM, killed", d.name, grace)
	}
	took := time.Since(start).Round(time.Millisecond)
	if d.err != nil {
		return fmt.Sprintf("%s: exit %v after SIGTERM (%v)", d.name, d.err, took)
	}
	return fmt.Sprintf("%s: exit 0 after SIGTERM (%v)", d.name, took)
}

// peakRSSKB reads the process's resident-set high-water mark.
func peakRSSKB(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tier is the serving tier as users run it: replicas behind a router, all
// real binaries on loopback sockets.
type tier struct {
	replicas []*daemon
	router   *daemon
	client   *http.Client
}

func startTier(binDir, modelsDir string, replicas, conns int, timeout time.Duration) (*tier, error) {
	t := &tier{client: &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}}
	var urls []string
	for i := 0; i < replicas; i++ {
		d, err := startDaemon(fmt.Sprintf("replica-%d", i), filepath.Join(binDir, "dvfs-served"),
			"-addr", "127.0.0.1:0", "-models", modelsDir)
		if err != nil {
			t.teardown()
			return nil, err
		}
		t.replicas = append(t.replicas, d)
		urls = append(urls, "http://"+d.addr)
	}
	d, err := startDaemon("router", filepath.Join(binDir, "dvfs-router"),
		"-addr", "127.0.0.1:0", "-replicas", strings.Join(urls, ","))
	if err != nil {
		t.teardown()
		return nil, err
	}
	t.router = d
	return t, nil
}

func (t *tier) routerURL() string { return "http://" + t.router.addr }

func (t *tier) replicaURLs() []string {
	urls := make([]string, len(t.replicas))
	for i, d := range t.replicas {
		urls[i] = "http://" + d.addr
	}
	return urls
}

// peakRSSMB sums the daemons' resident-set high-water marks.
func (t *tier) peakRSSMB() (float64, error) {
	total := 0.0
	for _, d := range append([]*daemon{t.router}, t.replicas...) {
		kb, err := peakRSSKB(d.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		total += kb
	}
	return total / 1024, nil
}

// teardown stops the tier front to back: idle client connections close
// first (a connection the daemon accepted but never saw a request on would
// hold its drain open), then each daemon gets SIGTERM and a bounded wait.
// It returns one exit line per daemon.
func (t *tier) teardown() []string {
	t.client.CloseIdleConnections()
	var exits []string
	if t.router != nil {
		exits = append(exits, t.router.stop(10*time.Second))
	}
	for _, d := range t.replicas {
		exits = append(exits, d.stop(10*time.Second))
	}
	return exits
}

// post sends body to url and returns the status and response bytes.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches url into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

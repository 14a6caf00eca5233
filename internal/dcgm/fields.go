package dcgm

import (
	"fmt"
	"sort"

	"gpudvfs/internal/backend"
)

// FieldID identifies one telemetry metric, using the real NVIDIA DCGM
// field identifiers so collected data maps one-to-one onto what the
// paper's framework would have requested from dcgmProfGetSupportedMetricGroups.
type FieldID int

// The DCGM field identifiers for the 12 metrics of §4.1 (values from
// dcgm_fields.h; DCGM_FI_PROF_* are the fine-grained profiling metrics).
const (
	FieldSMAppClock     FieldID = 110  // DCGM_FI_DEV_SM_CLOCK
	FieldPowerUsage     FieldID = 155  // DCGM_FI_DEV_POWER_USAGE
	FieldGPUUtilization FieldID = 203  // DCGM_FI_DEV_GPU_UTIL
	FieldPCIeTxBytes    FieldID = 1009 // DCGM_FI_PROF_PCIE_TX_BYTES
	FieldPCIeRxBytes    FieldID = 1010 // DCGM_FI_PROF_PCIE_RX_BYTES
	FieldGrEngineActive FieldID = 1001 // DCGM_FI_PROF_GR_ENGINE_ACTIVE
	FieldSMActive       FieldID = 1002 // DCGM_FI_PROF_SM_ACTIVE
	FieldSMOccupancy    FieldID = 1003 // DCGM_FI_PROF_SM_OCCUPANCY
	FieldDRAMActive     FieldID = 1005 // DCGM_FI_PROF_DRAM_ACTIVE
	FieldFP64Active     FieldID = 1006 // DCGM_FI_PROF_PIPE_FP64_ACTIVE
	FieldFP32Active     FieldID = 1007 // DCGM_FI_PROF_PIPE_FP32_ACTIVE
)

// fieldTable names each field and gives its bit in the samplers' field set.
var fieldTable = map[FieldID]struct {
	name string
	bit  backend.FieldSet
}{
	FieldSMAppClock:     {"sm_app_clock", backend.FieldSMAppClock},
	FieldPowerUsage:     {"power_usage", backend.FieldPowerUsage},
	FieldGPUUtilization: {"gpu_utilization", backend.FieldGPUUtilization},
	FieldPCIeTxBytes:    {"pcie_tx_bytes", backend.FieldPCIeTxBytes},
	FieldPCIeRxBytes:    {"pcie_rx_bytes", backend.FieldPCIeRxBytes},
	FieldGrEngineActive: {"gr_engine_active", backend.FieldGrEngineActive},
	FieldSMActive:       {"sm_active", backend.FieldSMActive},
	FieldSMOccupancy:    {"sm_occupancy", backend.FieldSMOccupancy},
	FieldDRAMActive:     {"dram_active", backend.FieldDRAMActive},
	FieldFP64Active:     {"fp64_active", backend.FieldFP64Active},
	FieldFP32Active:     {"fp32_active", backend.FieldFP32Active},
}

// fieldSet builds the samplers' field set from DCGM field IDs, the way a
// DCGM field group is built; no IDs means every field.
func fieldSet(ids []FieldID) (backend.FieldSet, error) {
	if len(ids) == 0 {
		return backend.AllFields, nil
	}
	var fs backend.FieldSet
	for _, id := range ids {
		f, ok := fieldTable[id]
		if !ok {
			return 0, fmt.Errorf("dcgm: unknown field %d", int(id))
		}
		fs |= f.bit
	}
	return fs, nil
}

// String returns the metric's snake_case name as used in the CSV header
// and the paper's §4.1 list.
func (f FieldID) String() string {
	if info, ok := fieldTable[f]; ok {
		return info.name
	}
	return fmt.Sprintf("field(%d)", int(f))
}

// AllFields lists the 11 sampled field IDs in ascending ID order. (The
// twelfth §4.1 metric, exec_time, is a run-level value, not a sampled
// field.)
func AllFields() []FieldID {
	out := make([]FieldID, 0, len(fieldTable))
	for f := range fieldTable {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Value extracts the field's value from a sample.
func (f FieldID) Value(s Sample) (float64, error) {
	switch f {
	case FieldSMAppClock:
		return s.SMAppClockMHz, nil
	case FieldPowerUsage:
		return s.PowerUsage, nil
	case FieldGPUUtilization:
		return s.GPUUtilization, nil
	case FieldPCIeTxBytes:
		return s.PCIeTxMBps * 1e6, nil // DCGM reports bytes/s
	case FieldPCIeRxBytes:
		return s.PCIeRxMBps * 1e6, nil
	case FieldGrEngineActive:
		return s.GrEngineActive, nil
	case FieldSMActive:
		return s.SMActive, nil
	case FieldSMOccupancy:
		return s.SMOccupancy, nil
	case FieldDRAMActive:
		return s.DRAMActive, nil
	case FieldFP64Active:
		return s.FP64Active, nil
	case FieldFP32Active:
		return s.FP32Active, nil
	}
	return 0, fmt.Errorf("dcgm: unknown field %d", int(f))
}

package cpu

import (
	"fmt"

	"dap/internal/obs"
)

// RegisterMetrics registers per-core IPC probes (`core<i>.ipc`) on a
// sampler. The probes read each core's lazily-updated retirement counter as
// is — deliberately NOT forcing a catch-up, since that would mutate core
// state from a sampling event and break bit-identical determinism — so the
// series reports instructions retired at event granularity: exact in total,
// with window boundaries quantized to the core's last scheduling event.
func (c *CPU) RegisterMetrics(s *obs.Sampler) {
	for i := range c.cores {
		co := c.cores[i]
		s.Util(fmt.Sprintf("core%d.ipc", i), func() uint64 { return co.fetched })
	}
}

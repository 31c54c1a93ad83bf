package harness

import (
	"fmt"

	"dap/internal/dram"
	"dap/internal/mem"
	"dap/internal/mscache"
	"dap/internal/sim"
	"dap/internal/stats"
)

// AuditError reports the first runtime invariant violation the auditor
// found, with the cycle and the check that caught it.
type AuditError struct {
	Cycle mem.Cycle
	Check string
	Err   error
}

func (e *AuditError) Error() string {
	return fmt.Sprintf("audit: %s invariant violated at cycle %d: %v", e.Check, e.Cycle, e.Err)
}

func (e *AuditError) Unwrap() error { return e.Err }

// auditable is implemented by controllers whose internal structures can be
// structurally checked (the sector caches: dirty mask ⊆ valid mask; the
// Alloy cache: its dirty-bit cache covers every dirty set).
type auditable interface {
	AuditInvariants() error
}

// reqCounter wraps the memory-side controller in audit mode to track
// request conservation: every demand/prefetch read issued by the cores must
// be either completed or still in flight, and never completed twice. It is
// a pure pass-through — counting only — so enabling audit mode cannot
// change simulated behavior.
type reqCounter struct {
	inner mscache.Controller
	eng   *sim.Engine

	Issued    uint64
	Completed uint64
}

// InFlight returns the reads issued but not yet completed.
func (rc *reqCounter) InFlight() uint64 { return rc.Issued - rc.Completed }

func (rc *reqCounter) Read(a mem.Addr, c int, k mem.Kind, done func(mem.Cycle)) {
	if done == nil {
		rc.inner.Read(a, c, k, nil)
		return
	}
	rc.Issued++
	completed := false
	rc.inner.Read(a, c, k, func(t mem.Cycle) {
		if completed {
			rc.eng.Fail(&AuditError{Cycle: rc.eng.Now(), Check: "conservation",
				Err: fmt.Errorf("read of %#x (core %d) completed twice", a, c)})
			return
		}
		completed = true
		rc.Completed++
		done(t)
	})
}

func (rc *reqCounter) Writeback(a mem.Addr, c int)     { rc.inner.Writeback(a, c) }
func (rc *reqCounter) WarmRead(a mem.Addr, c int)      { rc.inner.WarmRead(a, c) }
func (rc *reqCounter) WarmWriteback(a mem.Addr, c int) { rc.inner.WarmWriteback(a, c) }
func (rc *reqCounter) MSStats() *stats.MemSideStats    { return rc.inner.MSStats() }
func (rc *reqCounter) CacheCAS() uint64                { return rc.inner.CacheCAS() }
func (rc *reqCounter) ResetStats()                     { rc.inner.ResetStats() }

// startAudit arms the runtime invariant auditor: a periodic event that
// checks, every cfg.AuditEvery cycles (default 4096):
//
//   - DAP credit counters stay within [0, cap] (a corrupted update is
//     caught within one window);
//   - request conservation (issued == completed + in-flight, via the
//     reqCounter wrapper, which also catches double completions inline);
//   - delivered bandwidth per source never exceeds its peak — each device's
//     CAS delta over the window must fit the window's line budget;
//   - memory-side cache metadata consistency (sector caches: dirty mask ⊆
//     valid mask; Alloy: each dirty-bit-cache entry covers its group's
//     dirty sets, and dirty or reused bits sit only on valid sets);
//   - CPU core-model structure (ROB window, fetch ordering, prefetch
//     accounting).
//
// The first violation aborts the run via Engine.Fail with an *AuditError
// carrying the cycle and check name.
func (s *System) startAudit() {
	every := s.Cfg.AuditEvery
	if every == 0 {
		every = 4096
	}
	devs := s.devices()
	lastCAS := make([]uint64, len(devs))
	for i, d := range devs {
		lastCAS[i] = d.Stats().CAS()
	}
	lastCycle := s.Eng.Now()

	fail := func(checkName string, err error) {
		s.Eng.Fail(&AuditError{Cycle: s.Eng.Now(), Check: checkName, Err: err})
	}
	var tick func()
	tick = func() {
		if s.dap != nil {
			if err := s.dap.AuditCredits(); err != nil {
				fail("dap-credits", err)
				return
			}
		}
		if au, ok := s.Ctrl.(auditable); ok {
			if err := au.AuditInvariants(); err != nil {
				fail("cache-metadata", err)
				return
			}
		}
		if err := s.CPU.AuditInvariants(); err != nil {
			fail("cpu-structure", err)
			return
		}
		// a CAS may be reserved up to one dram.Horizon ahead of now, so a
		// window's count may exceed its elapsed-time allowance by that much
		dt := float64(s.Eng.Now() - lastCycle + dram.Horizon)
		for i, d := range devs {
			cas := d.Stats().CAS()
			delta := float64(cas - lastCAS[i])
			if allowed := mem.AccessesPerCycle(d.Cfg.PeakGBps())*dt + 8; delta > allowed {
				fail("bandwidth-ceiling", fmt.Errorf(
					"%s delivered %.0f lines in a %.0f-cycle window, peak allows %.0f",
					d.Cfg.Name, delta, dt, allowed))
				return
			}
			lastCAS[i] = cas
		}
		lastCycle = s.Eng.Now()
		s.Eng.After(every, tick)
	}
	s.Eng.After(every, tick)
}

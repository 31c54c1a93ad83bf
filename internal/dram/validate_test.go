package dram

import (
	"errors"
	"testing"

	"dap/internal/check"
	"dap/internal/sim"
)

// TestNamedConfigsValid: every named configuration the paper uses must pass
// its own validation.
func TestNamedConfigsValid(t *testing.T) {
	for _, cfg := range []Config{
		DDR4_2400(), DDR4_2400NoIO(), DDR4_3200(), LPDDR4_2400(),
		HBM102(), HBM128(), HBM204(),
		EDRAMRead(51.2), EDRAMWrite(51.2),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

// TestValidateCatchesDerivedTimingHazards: the fields the derived-timing
// arithmetic divides by must be rejected when zero, all in one pass.
func TestValidateCatchesDerivedTimingHazards(t *testing.T) {
	cfg := DDR4_2400()
	cfg.Channels = 0  // route() modulo by channel count
	cfg.Banks = 0     // bank selection modulo
	cfg.RowBytes = 32 // rowLines = RowBytes/64 = 0: route() divide-by-zero
	cfg.FreqMHz = 0   // cpuCycles and PeakGBps divide by it
	cfg.BurstCycles = 0
	err := cfg.Validate()
	var es check.Errors
	if !errors.As(err, &es) {
		t.Fatalf("expected check.Errors, got %v", err)
	}
	if len(es) < 5 {
		t.Fatalf("expected all five hazards reported at once, got %d: %v", len(es), err)
	}
	fields := map[string]bool{}
	for _, e := range es {
		fields[e.Field] = true
	}
	for _, f := range []string{"Channels", "Banks", "RowBytes", "FreqMHz", "BurstCycles"} {
		if !fields[f] {
			t.Errorf("hazardous field %s not reported: %v", f, err)
		}
	}
}

// TestValidateWriteWatermarks: WriteHigh below WriteLow is rejected.
func TestValidateWriteWatermarks(t *testing.T) {
	cfg := DDR4_2400()
	cfg.WriteHigh, cfg.WriteLow = 4, 8
	if cfg.Validate() == nil {
		t.Fatal("inverted write watermarks accepted")
	}
}

// TestNewDeviceE: the error-returning constructor rejects bad configs and
// accepts good ones; the panicking wrapper panics with the same diagnosis.
func TestNewDeviceE(t *testing.T) {
	eng := sim.New()
	if _, err := NewDeviceE(DDR4_2400(), eng); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := DDR4_2400()
	bad.Channels = 0
	if _, err := NewDeviceE(bad, eng); err == nil {
		t.Fatal("zero-channel config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewDevice did not panic on invalid config")
		}
	}()
	NewDevice(bad, eng)
}

package analysis

import (
	"strings"
	"testing"
)

func TestConfusionAccounting(t *testing.T) {
	var c Confusion
	c.Add(true, false)  // high correct
	c.Add(true, false)  // high correct
	c.Add(true, true)   // escape
	c.Add(false, false) // false alarm
	c.Add(false, true)  // capture
	c.Add(false, true)  // capture
	if c.Total() != 6 || c.Misses() != 3 {
		t.Fatalf("totals %d/%d", c.Total(), c.Misses())
	}
	if got := c.Sens(); got < 0.66 || got > 0.67 {
		t.Fatalf("Sens %v", got)
	}
	if got := c.Spec(); got < 0.66 || got > 0.67 {
		t.Fatalf("Spec %v", got)
	}
	if got := c.PVP(); got < 0.66 || got > 0.67 {
		t.Fatalf("PVP %v", got)
	}
	if got := c.PVN(); got < 0.66 || got > 0.67 {
		t.Fatalf("PVN %v", got)
	}
	if got := c.LowFrac(); got != 0.5 {
		t.Fatalf("LowFrac %v", got)
	}
	if !strings.Contains(c.String(), "SENS") {
		t.Fatal("String missing metrics")
	}
}

func TestConfusionEmpty(t *testing.T) {
	var c Confusion
	if c.Sens() != 0 || c.Spec() != 0 || c.PVP() != 0 || c.PVN() != 0 || c.LowFrac() != 0 {
		t.Fatal("empty confusion nonzero metrics")
	}
}

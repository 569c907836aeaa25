package obs

import (
	"testing"

	"repro/internal/network"
)

// TestEventClocks covers the clock choice of a stream (HasWall) and the
// timestamps of its last event in that clock (End, and Start floored at
// zero).
func TestEventClocks(t *testing.T) {
	cases := []struct {
		name       string
		stream     []Event
		wall       bool
		end, start network.Time
	}{
		{"virtual", []Event{{Clock: 500, Dur: 200}}, false, 500, 300},
		{"wall ignores clock", []Event{{Wall: 900, Clock: 5, Dur: 100}}, true, 900, 800},
		{"one wall event makes a wall stream", []Event{{Clock: 10}, {Wall: 40, Dur: 10}}, true, 40, 30},
		{"virtual start floors at zero", []Event{{Clock: 100, Dur: 250}}, false, 100, 0},
		{"wall start floors at zero", []Event{{Wall: 50, Dur: 80}}, true, 50, 0},
	}
	if HasWall(nil) {
		t.Error("empty stream: HasWall = true")
	}
	for _, c := range cases {
		e := c.stream[len(c.stream)-1]
		if got := HasWall(c.stream); got != c.wall {
			t.Errorf("%s: HasWall = %v, want %v", c.name, got, c.wall)
		}
		if got := e.End(c.wall); got != c.end {
			t.Errorf("%s: End = %d, want %d", c.name, got, c.end)
		}
		if got := e.Start(c.wall); got != c.start {
			t.Errorf("%s: Start = %d, want %d", c.name, got, c.start)
		}
	}
}

package faults

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-stepped wall clock for ReqBreaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestReqBreakerTripAndRecover(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewReqBreaker(ReqBreakerParams{Trip: 3, Cooldown: 10 * time.Second}, clk.now)

	for i := 0; i < 2; i++ {
		pass, probe := b.Allow()
		if !pass || probe {
			t.Fatalf("closed breaker: pass=%v probe=%v", pass, probe)
		}
		b.Record(false, probe)
		if b.State() != StateClosed {
			t.Fatalf("after %d failures state = %s, want closed", i+1, b.State())
		}
	}
	pass, probe := b.Allow()
	b.Record(false, probe)
	if b.State() != StateOpen || b.Trips() != 1 {
		t.Fatalf("third failure: state=%s trips=%d, want open/1", b.State(), b.Trips())
	}
	if pass, _ := b.Allow(); pass {
		t.Fatal("open breaker inside cooldown must not pass")
	}

	clk.advance(11 * time.Second)
	if b.State() != StateHalfOpen {
		t.Fatalf("past cooldown state = %s, want half-open", b.State())
	}
	pass, probe = b.Allow()
	if !pass || !probe {
		t.Fatalf("first post-cooldown Allow: pass=%v probe=%v, want probe", pass, probe)
	}
	// While the probe is in flight the slot is occupied.
	if pass, _ := b.Allow(); pass {
		t.Fatal("second Allow racing the probe must short-circuit")
	}
	b.Record(true, probe)
	if b.State() != StateClosed {
		t.Fatal("successful probe should close")
	}
	if pass, probe := b.Allow(); !pass || probe {
		t.Fatal("closed breaker should pass plain traffic again")
	}
}

func TestReqBreakerFailedProbeReopens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewReqBreaker(ReqBreakerParams{Trip: 1, Cooldown: 5 * time.Second}, clk.now)

	_, probe := b.Allow()
	b.Record(false, probe) // Trip=1: immediate open
	clk.advance(6 * time.Second)
	_, probe = b.Allow()
	if !probe {
		t.Fatal("post-cooldown request should be the probe")
	}
	b.Record(false, probe)
	if b.State() != StateOpen || b.Trips() != 2 {
		t.Fatalf("failed probe: state=%s trips=%d, want open/2", b.State(), b.Trips())
	}
	// The re-open restarts the cooldown.
	clk.advance(3 * time.Second)
	if pass, _ := b.Allow(); pass {
		t.Fatal("restarted cooldown must still short-circuit")
	}
	clk.advance(3 * time.Second)
	if pass, probe := b.Allow(); !pass || !probe {
		t.Fatal("second cooldown elapsed: probe should pass")
	}
}

func TestReqBreakerSuccessResetsStreak(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewReqBreaker(ReqBreakerParams{Trip: 3, Cooldown: time.Second}, clk.now)
	for i := 0; i < 10; i++ {
		_, probe := b.Allow()
		b.Record(i%2 == 0, probe) // alternating outcomes never trip
	}
	if b.State() != StateClosed || b.Trips() != 0 {
		t.Fatalf("alternating outcomes tripped the breaker: %s/%d", b.State(), b.Trips())
	}
}

package serving

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"scouts/internal/telemetry"
)

// The request's record is its context.Context. These tests hold it to the
// contract the context.WithTimeout it replaced kept, and hold the pool to
// handing a record on with nothing of the request before it.

// TestRequestContextDeadline: the deadline is the earlier of the parent's
// and now + RequestTimeout.
func TestRequestContextDeadline(t *testing.T) {
	const timeout = time.Minute
	srv := NewServer(nil, nil, NewStore(), nil)
	srv.RequestTimeout = timeout
	var got time.Time
	var ok bool
	h := srv.harden(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		got, ok = r.Context().Deadline()
	}))
	serve := func(ctx context.Context) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil).WithContext(ctx))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}

	for _, c := range []struct {
		name   string
		parent time.Duration // 0: no parent deadline
	}{{"no parent deadline", 0}, {"a later parent deadline", time.Hour}} {
		ctx := context.Background()
		if c.parent > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.parent)
			defer cancel()
		}
		before := time.Now()
		serve(ctx)
		after := time.Now()
		if !ok || got.Before(before.Add(timeout)) || got.After(after.Add(timeout)) {
			t.Errorf("%s: deadline %v (set %v), want now + %v, in [%v, %v]", c.name, got, ok, timeout, before.Add(timeout), after.Add(timeout))
		}
	}

	early := time.Now().Add(time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), early)
	defer cancel()
	serve(ctx)
	if !ok || !got.Equal(early) {
		t.Errorf("an earlier parent deadline: deadline %v (set %v), want the parent's %v", got, ok, early)
	}
}

// TestRequestContextEnds: Err is Canceled once the client hung up and
// DeadlineExceeded once the request overran, and a Done channel that was
// asked for closes in both cases — asked for before the end or after it.
func TestRequestContextEnds(t *testing.T) {
	srv := NewServer(nil, nil, NewStore(), nil)
	for _, c := range []struct {
		name    string
		timeout time.Duration
		hangUp  bool
		want    error
	}{
		{"client hang-up", time.Minute, true, context.Canceled},
		{"overrun", 5 * time.Millisecond, false, context.DeadlineExceeded},
	} {
		for _, late := range []bool{false, true} {
			srv.RequestTimeout = c.timeout
			parent, hangUp := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			h := srv.harden(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
				ctx := r.Context()
				if err := ctx.Err(); err != nil {
					errc <- errors.New("Err before the end: " + err.Error())
					return
				}
				var done <-chan struct{}
				if !late {
					done = ctx.Done()
				}
				if c.hangUp {
					hangUp()
				}
				for ctx.Err() == nil {
					time.Sleep(time.Millisecond)
				}
				if late {
					done = ctx.Done()
				}
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					errc <- errors.New("Done never closed")
					return
				}
				errc <- ctx.Err()
			}))
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil).WithContext(parent))
			hangUp()
			if err := <-errc; err != c.want {
				t.Errorf("%s (Done asked for after the end: %v): Err %v, want %v", c.name, late, err, c.want)
			}
		}
	}

	// A Done channel still open when the request ends closes then, as a
	// cancelled context's does.
	srv.RequestTimeout = time.Minute
	var ctx context.Context
	srv.harden(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		ctx = r.Context()
		ctx.Done()
	})).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	select {
	case <-ctx.Done():
	default:
		t.Error("a Done channel stayed open after its request ended")
	}
	if err := ctx.Err(); err != context.Canceled {
		t.Errorf("Err after the request ended: %v, want %v", err, context.Canceled)
	}
}

// TestRequestContextValue: the record forwards the parent's keys and
// answers telemetry.RequestID with the ID the response echoes; without
// withRequestID in front it carries no ID of its own.
func TestRequestContextValue(t *testing.T) {
	type key struct{}
	srv := NewServer(nil, nil, NewStore(), nil)
	srv.RequestTimeout = time.Minute
	var val any
	var id string
	handler := http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		val, id = r.Context().Value(key{}), telemetry.RequestID(r.Context())
	})
	parent := context.WithValue(context.Background(), key{}, "the parent's")
	for _, c := range []struct {
		name   string
		h      http.Handler
		withID bool
	}{{"Handler's chain", srv.harden(handler), true}, {"withDeadline alone", srv.withDeadline(handler), false}} {
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil).WithContext(parent))
		if val != "the parent's" {
			t.Errorf("%s: the parent's key reads %v", c.name, val)
		}
		if want := rec.Header().Get("X-Request-Id"); id != want || (id != "") != c.withID {
			t.Errorf("%s: RequestID %q, X-Request-Id %q", c.name, id, want)
		}
	}
}

// TestRequestContextRecycled: a record released to the pool shows nothing
// of its request — not its ID, deadline, flags, response or expiry — and
// the next request's context reads fresh; a record whose watchdog fired is
// never pooled again.
func TestRequestContextRecycled(t *testing.T) {
	srv := NewServer(nil, nil, NewStore(), nil)
	srv.RequestTimeout = time.Minute
	var c *requestCtx
	var id string
	var deadline time.Time
	h := srv.harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		c = ctx.(*requestCtx)
		if ctx.Err() != nil || telemetry.RequestID(ctx) == id {
			t.Errorf("request %s starts ended (%v) or under the last request's ID", telemetry.RequestID(ctx), ctx.Err())
		}
		if d, _ := ctx.Deadline(); !d.After(deadline) {
			t.Errorf("request %s starts under deadline %v, the last one's was %v", telemetry.RequestID(ctx), d, deadline)
		}
		id, deadline = telemetry.RequestID(ctx), c.deadline
		w.Header().Set("X-Last", id)
		w.WriteHeader(http.StatusTeapot)
		_, _ = io.WriteString(w, "body of "+id)
	}))
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond) // every deadline lies after the last
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		if rec.Code != http.StatusTeapot || rec.Header().Get("X-Last") != id || rec.Body.String() != "body of "+id {
			t.Fatalf("request %s answered %d X-Last=%q %q", id, rec.Code, rec.Header().Get("X-Last"), rec.Body.String())
		}
		if c.parent != nil || c.id != "" || c.s != nil || c.w != nil || c.armed || !c.deadline.IsZero() ||
			c.settled || c.answered || c.state.Load() != ctxLive || c.kept || c.done != nil ||
			len(c.header) != 0 || len(c.body) != 0 || c.code != 0 {
			t.Fatalf("request %s: the released record kept %+v", id, c)
		}
	}

	srv.RequestTimeout = time.Millisecond
	overran := srv.harden(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		c = r.Context().(*requestCtx)
		for r.Context().Err() == nil {
			time.Sleep(time.Millisecond)
		}
	}))
	rec := httptest.NewRecorder()
	overran.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	c.mu.Lock()
	kept := c.kept
	c.mu.Unlock()
	if rec.Code != http.StatusServiceUnavailable || !kept || c.id == "" {
		t.Fatalf("an overrun answered %d and its record was pooled again (kept %v, ID %q)", rec.Code, kept, c.id)
	}
}

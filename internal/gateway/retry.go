package gateway

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// backoffSource draws jitter from a seeded source so a fixed seed
// replays the same backoff schedule (the rand.Rand itself is not
// goroutine-safe; the mutex is the price of determinism-by-seed).
type backoffSource struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newBackoffSource(seed int64) *backoffSource {
	return &backoffSource{rng: rand.New(rand.NewSource(seed))}
}

// delay computes the attempt-th retry's wait: exponential growth from
// base capped at max, with equal jitter (half fixed, half uniform) so a
// burst of failed requests does not re-converge into a synchronized
// retry stampede. A Retry-After hint from the replica overrides the
// computed wait when longer — the server knows its own pressure better
// than our exponent does — capped at max so a hostile hint cannot park
// the client forever.
func (b *backoffSource) delay(attempt int, base, max, hint time.Duration) time.Duration {
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	d := base << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	b.mu.Lock()
	jittered := d/2 + time.Duration(b.rng.Int63n(int64(d/2)+1))
	b.mu.Unlock()
	if hint > jittered {
		jittered = hint
	}
	if jittered > max {
		jittered = max
	}
	return jittered
}

// sleepCtx waits d or until the context ends, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// maxRetryAfter is what a hint too long for a Duration is read as.
const maxRetryAfter = time.Duration(math.MaxInt64)

// ParseRetryAfter reads a Retry-After header as delay seconds, 1*DIGIT
// (the only form this fleet emits; HTTP-date is ignored rather than guessed
// at), and 0 when there is no such hint. A count past what a Duration holds
// saturates, however many digits it has: the longest hint a server can send
// must not wrap into no hint, or into a short one. Callers apply their own
// default and cap; this is the tree's one reader of the header.
func ParseRetryAfter(h http.Header) time.Duration {
	const most = int64(maxRetryAfter / time.Second)
	v := h.Get("Retry-After")
	secs := int64(0)
	for i := 0; i < len(v); i++ {
		if v[i] < '0' || v[i] > '9' {
			return 0
		}
		secs = min(secs*10+int64(v[i]-'0'), most+1)
	}
	if secs > most {
		return maxRetryAfter
	}
	return time.Duration(secs) * time.Second
}

package leakcheck

import (
	"strings"
	"testing"
)

// TestSeesAModuleGoroutineUntilItExits: a goroutine this module launched is
// reported with its stack while it runs and no longer once it has exited;
// the caller's own goroutine never is.
func TestSeesAModuleGoroutineUntilItExits(t *testing.T) {
	if got := moduleGoroutines(); len(got) != 0 {
		t.Fatalf("reported before anything was launched:\n%s", strings.Join(got, "\n\n"))
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		<-stop
	}()
	got := moduleGoroutines()
	if len(got) != 1 || !strings.Contains(got[0], "TestSeesAModuleGoroutineUntilItExits.func1") {
		t.Fatalf("want the one launched goroutine, got:\n%s", strings.Join(got, "\n\n"))
	}
	close(stop)
	<-done
	if left := settle(); left != nil {
		t.Fatalf("an exited goroutine is still reported:\n%s", strings.Join(left, "\n\n"))
	}
}

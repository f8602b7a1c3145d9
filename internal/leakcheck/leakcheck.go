// Package leakcheck fails a test binary whose tests leave goroutines of
// this module running. Main is a package's TestMain: once the tests have
// passed it closes http.DefaultTransport's idle connections — the one
// pooled state a test cannot reach to close itself — and polls the
// goroutine dump until no goroutine but its own has a frame in the module
// ("scouts/", the function that runs or the one that launched it). If any
// remain after the last poll it prints their stacks and exits 1.
//
// The poll count is fixed and no clock is read: a goroutine still winding
// down after ~2 s of polls is a leak.
package leakcheck

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

const (
	polls   = 200
	pollGap = 10 * time.Millisecond
)

// Main runs the package's tests, then the leak check.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := settle(); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) still running after the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// settle polls until the module's goroutines are gone, and returns the
// stacks of those still running at the last poll.
func settle() []string {
	var leaked []string
	for i := 0; i < polls; i++ {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if leaked = moduleGoroutines(); len(leaked) == 0 {
			return nil
		}
		time.Sleep(pollGap)
	}
	return leaked
}

// moduleGoroutines returns the stack of every goroutine but the caller's
// with a frame in the module.
func moduleGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] { // the first is the caller's
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(strings.TrimPrefix(line, "created by "), "scouts/") {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

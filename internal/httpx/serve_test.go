package httpx

import (
	"bytes"
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedLog is a logger sink Serve's goroutine and the test share.
type lockedLog struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestServeDrainsAndReturnsNilOnCancel: when Serve's context ends it runs
// onDrain, lets the request in flight finish and be answered, and returns
// nil — leaving no goroutine behind (the package's TestMain checks).
func TestServeDrainsAndReturnsNilOnCancel(t *testing.T) {
	addr := freeAddr(t)
	entered, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/ready", func(http.ResponseWriter, *http.Request) {})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		_, _ = io.WriteString(w, "done")
	})
	logs := &lockedLog{}
	drained := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, addr, mux, log.New(logs, "", 0), func() { close(drained) }) }()

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for i := 0; ; i++ {
		resp, err := client.Get("http://" + addr + "/ready")
		if err == nil {
			resp.Body.Close()
			break
		}
		if i == 200 {
			t.Fatalf("Serve never answered: %v; log: %s", err, logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	answered := make(chan string, 1)
	go func() {
		resp, err := client.Get("http://" + addr + "/slow")
		if err != nil {
			answered <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		answered <- string(b)
	}()
	<-entered
	cancel()
	<-drained
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if got := <-answered; got != "done" {
		t.Fatalf("the in-flight request got %q, want its answer", got)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("a clean drain returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the drain")
	}
	for _, want := range []string{"listening on " + addr, "draining", "drained; bye"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %q: %s", want, logs.String())
		}
	}
}

// TestServeReturnsListenErrorAsIs: an address already taken is Serve's
// error, unwrapped, and nothing is drained.
func TestServeReturnsListenErrorAsIs(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	drained := false
	err = Serve(context.Background(), l.Addr().String(), http.NotFoundHandler(), log.New(io.Discard, "", 0), func() { drained = true })
	if op, ok := err.(*net.OpError); !ok || op.Op != "listen" {
		t.Fatalf("Serve on a taken address returned %T %v, want the *net.OpError of listen", err, err)
	}
	if drained {
		t.Fatal("a failed listen ran onDrain")
	}
}

package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scouts/internal/serving"
)

// TestErrorStatusFails: whatever the body, an error status makes the
// command fail, so a script sees a wrong -addr's HTML 404 or a proxy's
// text 502 as the failure it is; a JSON 200 is success.
func TestErrorStatusFails(t *testing.T) {
	for _, tc := range []struct {
		name, contentType, body string
		status                  int
		wantErr                 bool
	}{
		{"html 404", "text/html", "<html><body>404 page not found</body></html>", http.StatusNotFound, true},
		{"text 502", "text/plain", "502 Bad Gateway", http.StatusBadGateway, true},
		{"json 400", "application/json", `{"error":"title or body is required"}`, http.StatusBadRequest, true},
		{"json 200", "application/json", `{"verdict":"responsible"}`, http.StatusOK, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", tc.contentType)
				w.WriteHeader(tc.status)
				w.Write([]byte(tc.body))
			}))
			defer srv.Close()
			for cmd, run := range map[string]func() error{
				"health":  func() error { return get(srv.URL + "/v1/health") },
				"predict": func() error { return predict(srv.URL, []string{"-title", "tor2.c3.dc1 down"}) },
			} {
				if err := run(); (err != nil) != tc.wantErr {
					t.Errorf("%s: err = %v, want an error: %v", cmd, err, tc.wantErr)
				}
			}
		})
	}
}

// scoutdPackSHA256 and scoutdPackBytes are the snapshot scoutd published
// into an empty -store at -seed 7 -days 5 -rate 4 (at -workers 0 and 1
// alike) when it still trained at boot; the trainer must publish it byte
// for byte.
const (
	scoutdPackSHA256 = "fcb360e6917b99448c4495eff1d4d22de086bbb1b2adcfc5dce0b29fd26cb6ff"
	scoutdPackBytes  = 28742
)

// TestTrainPublishesScoutdPack: train publishes the pack scoutd used to
// train at boot and logs the scoutd line that serves it, a second train on the same store publishes version 2,
// and a damaged model-000001.pack is quarantined — logged by name with
// the checksum reason — and the new pack numbered past it.
func TestTrainPublishesScoutdPack(t *testing.T) {
	trainInto := func(dir string) string {
		t.Helper()
		var logged bytes.Buffer
		if err := train([]string{"-store", dir, "-seed", "7", "-days", "5", "-rate", "4"}, log.New(&logged, "", 0)); err != nil {
			t.Fatalf("train -store %s: %v\n%s", dir, err, logged.String())
		}
		return logged.String()
	}
	dir := t.TempDir()
	if logged, want := trainInto(dir), fmt.Sprintf("serve it with: scoutd -store %s -seed 7 -days 5 -rate 4\n", dir); !strings.Contains(logged, want) {
		t.Errorf("train did not log the scoutd line that serves its world (%q):\n%s", want, logged)
	}
	pack := filepath.Join(dir, "model-000001.pack")
	m, err := serving.ReadModelFile(pack)
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(m.Snapshot)); sum != scoutdPackSHA256 || len(m.Snapshot) != scoutdPackBytes {
		t.Fatalf("train published a %d-byte snapshot with sha256 %s; scoutd published %d bytes, %s",
			len(m.Snapshot), sum, scoutdPackBytes, scoutdPackSHA256)
	}

	trainInto(dir)
	if m2, err := serving.ReadModelFile(filepath.Join(dir, "model-000002.pack")); err != nil || m2.Version != 2 {
		t.Fatalf("a second train: model-000002.pack reads %+v, %v; want version 2", m2, err)
	}

	damaged := t.TempDir()
	raw, err := os.ReadFile(pack)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(filepath.Join(damaged, "model-000001.pack"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	logged := trainInto(damaged)
	if !strings.Contains(logged, "quarantined model-000001.pack: checksum") {
		t.Errorf("train did not log model-000001.pack's quarantine with the checksum reason:\n%s", logged)
	}
	for _, name := range []string{"model-000001.pack.quarantined", "model-000002.pack"} {
		if _, err := os.Stat(filepath.Join(damaged, name)); err != nil {
			t.Errorf("train over a damaged store left no %s: %v", name, err)
		}
	}
}

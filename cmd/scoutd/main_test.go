package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scouts/internal/serving"
)

// TestRunRefusesWithoutServableModel: with no -store, an empty store
// directory, or one whose only pack is damaged, run returns an error
// naming scoutctl train — and returns it before building the world, whose
// first log line it must not reach. The damaged pack's quarantine is still
// logged by name with the checksum reason.
func TestRunRefusesWithoutServableModel(t *testing.T) {
	damaged := t.TempDir()
	st := serving.NewStore()
	st.Put("PhyNet", []byte("SCPK a scoutpack's magic, enough to be published"))
	if err := serving.SaveStore(st, damaged); err != nil {
		t.Fatal(err)
	}
	pack := filepath.Join(damaged, "model-000001.pack")
	raw, err := os.ReadFile(pack)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1 // the snapshot's last byte: the checksum no longer matches
	if err := os.WriteFile(pack, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name, dir, wantLog string
	}{
		{"no -store", "", ""},
		{"empty directory", t.TempDir(), ""},
		{"damaged pack", damaged, "quarantined model-000001.pack: checksum"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var logged bytes.Buffer
			done := make(chan error, 1)
			go func() {
				done <- run("127.0.0.1:0", 7, 5, 4, servingOptions{storeDir: c.dir}, log.New(&logged, "", 0))
			}()
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("run did not return; it logged:\n%s", logged.String())
			}
			if err == nil || !strings.Contains(err.Error(), "scoutctl train") {
				t.Errorf("run = %v, want an error naming scoutctl train", err)
			}
			if strings.Contains(logged.String(), "generating") {
				t.Errorf("run built the world before refusing:\n%s", logged.String())
			}
			if !strings.Contains(logged.String(), c.wantLog) {
				t.Errorf("run did not log %q:\n%s", c.wantLog, logged.String())
			}
		})
	}
}

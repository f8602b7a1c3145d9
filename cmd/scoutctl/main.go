// Command scoutctl trains the model scoutd serves, inspects model files
// and queries a running scoutd.
//
// Usage:
//
//	scoutctl train -store DIR [-seed 7] [-days 90] [-rate 10]
//	scoutctl inspect <model-file>
//	scoutctl -addr http://localhost:8080 health
//	scoutctl -addr http://localhost:8080 model
//	scoutctl -addr http://localhost:8080 predict -title "..." -body "..." [-components a,b] [-time 100]
//
// train is the offline half of the §6 deployment: it builds the synthetic
// cloud scoutd serves (same flags, same defaults), trains a PhyNet Scout on
// its incident history and publishes the scoutpack into the store
// directory, numbered past every version and quarantined file already
// there. scoutd -store DIR serves it, and POST /v1/reload picks up a newer
// one. inspect verifies one .pack model file and prints its summary,
// including the forest shapes behind the checksummed sections.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"scouts/internal/cloudsim"
	"scouts/internal/core"
	"scouts/internal/serving"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "scoutd base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "health":
		err = get(*addr + "/v1/health")
	case "model":
		err = get(*addr + "/v1/model")
	case "predict":
		err = predict(*addr, args[1:])
	case "inspect":
		err = inspect(args[1:])
	case "train":
		err = train(args[1:], log.New(os.Stderr, "scoutctl: ", log.LstdFlags))
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scoutctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: scoutctl train -store DIR [-seed 7] [-days 90] [-rate 10]
       scoutctl inspect <model-file>
       scoutctl [-addr URL] <health|model|predict> [predict flags]
predict flags:
  -title string      incident title (required)
  -body string       incident body
  -components a,b,c  structured component mentions
  -time float        trigger time in model hours`)
}

// train builds the world scoutd builds, trains a Scout on its history and
// publishes the scoutpack into -store. Each damaged file the store load
// quarantines is logged by name and reason; the new version is numbered
// past it.
func train(args []string, logger *log.Logger) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	storeDir := fs.String("store", "", "model store directory to publish into (required)")
	seed := fs.Int64("seed", 7, "world seed")
	days := fs.Int("days", 90, "days of synthetic incident history to train on")
	rate := fs.Float64("rate", 10, "incidents per day")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("train requires -store DIR")
	}
	// A directory that does not exist yet is an empty store.
	store, err := serving.OpenStore(*storeDir, logger)
	if errors.Is(err, os.ErrNotExist) {
		store, err = serving.NewStore(), nil
	}
	if err != nil {
		return err
	}
	cfg, err := core.ParseConfig(core.DefaultPhyNetConfig)
	if err != nil {
		return err
	}

	logger.Printf("generating %d days of synthetic cloud history (seed %d)", *days, *seed)
	gen := cloudsim.New(cloudsim.Params{Seed: *seed, Days: *days, IncidentsPerDay: *rate})
	trace := gen.Generate()
	logger.Printf("%d incidents generated", trace.Len())

	start := time.Now()
	scout, err := core.Train(core.TrainOptions{
		Config:    cfg,
		Topology:  gen.Topology(),
		Source:    gen.Telemetry(),
		Incidents: trace.Incidents,
		Seed:      *seed,
	})
	if err != nil {
		return fmt.Errorf("training: %w", err)
	}
	snap, err := scout.SnapshotPack()
	if err != nil {
		return err
	}
	version := store.Put(scout.Team(), snap)
	logger.Printf("trained %s scout v%d in %v (top features: %v)",
		scout.Team(), version, time.Since(start).Round(time.Millisecond), scout.TopFeatures(3))
	if err := serving.SaveStore(store, *storeDir); err != nil {
		return fmt.Errorf("publishing to %s: %w", *storeDir, err)
	}
	// Nothing in the pack records its world yet, so the serving line
	// spells out the world flags scoutd must be given.
	logger.Printf("published scoutpack v%d to %s; serve it with: scoutd -store %s -seed %d -days %d -rate %g",
		version, *storeDir, *storeDir, *seed, *days, *rate)
	return nil
}

// inspect verifies one model file and prints its summary as JSON.
func inspect(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("inspect requires exactly one model file")
	}
	m, err := serving.ReadModelFile(args[0])
	if err != nil {
		return err
	}
	info, err := core.InspectPack(m.Snapshot)
	if err != nil {
		return err
	}
	out := map[string]any{
		"version":    m.Version,
		"team":       m.Team,
		"trained_at": m.TrainedAt,
		"bytes":      len(m.Snapshot),
		"format":     "scoutpack",
		"scoutpack":  info,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func get(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return dump(resp)
}

func predict(addr string, args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	title := fs.String("title", "", "incident title")
	body := fs.String("body", "", "incident body")
	comps := fs.String("components", "", "comma-separated component mentions")
	at := fs.Float64("time", 0, "trigger time (model hours)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *title == "" && *body == "" {
		return fmt.Errorf("predict requires -title or -body")
	}
	req := serving.PredictRequest{Title: *title, Body: *body, Time: *at}
	if *comps != "" {
		req.Components = strings.Split(*comps, ",")
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(addr+"/v1/predict", "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return dump(resp)
}

// dump pretty-prints a JSON response body, or prints it raw when it is
// not JSON, and fails on an error status either way.
func dump(resp *http.Response) error {
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		fmt.Println(string(raw))
	} else {
		fmt.Println(buf.String())
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server returned %s", resp.Status)
	}
	return nil
}

// Command scoutctl queries a running scoutd and manages model files.
//
// Usage:
//
//	scoutctl -addr http://localhost:8080 health
//	scoutctl -addr http://localhost:8080 model
//	scoutctl -addr http://localhost:8080 predict -title "..." -body "..." [-components a,b] [-time 100]
//	scoutctl inspect <model-file>
//
// inspect verifies one .pack model file and prints its summary,
// including the forest shapes behind the checksummed sections.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

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
	fmt.Fprintln(os.Stderr, `usage: scoutctl [-addr URL] <health|model|predict> [predict flags]
       scoutctl inspect <model-file>
predict flags:
  -title string      incident title (required)
  -body string       incident body
  -components a,b,c  structured component mentions
  -time float        trigger time in model hours`)
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

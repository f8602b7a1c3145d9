package main

import (
	"testing"

	"scouts/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines running.
func TestMain(m *testing.M) { leakcheck.Main(m) }

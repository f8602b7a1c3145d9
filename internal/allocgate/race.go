//go:build race

package allocgate

const raceDetector = true

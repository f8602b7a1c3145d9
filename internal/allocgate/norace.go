//go:build !race

package allocgate

const raceDetector = false

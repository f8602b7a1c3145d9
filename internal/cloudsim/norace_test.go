//go:build !race

package cloudsim

const raceEnabled = false

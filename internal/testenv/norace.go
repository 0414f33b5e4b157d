//go:build !race

// Package testenv holds facts about the test binary that tests in
// several packages need.
package testenv

// Race reports whether the binary was built with the race detector.
// Under it sync.Pool drops a share of what is put back, so pins on the
// allocation count of code that uses the wire pool do not hold.
const Race = false

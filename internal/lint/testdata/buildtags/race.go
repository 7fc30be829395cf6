//go:build race

package buildtags

// width is the pool width under the race detector.
const width = 1

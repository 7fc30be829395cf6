//go:build !race

package buildtags

// width is the pool width without the race detector.
const width = 4

// Width reports the pool width the build selected.
func Width() int { return width }

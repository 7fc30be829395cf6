// Package entropy is the other half of the reachcross fixture: a
// module package, loaded under its own import path, that reads
// crypto/rand.
package entropy

import crand "crypto/rand"

// Read returns one byte of non-reproducible entropy.
func Read() byte {
	var b [1]byte
	_, _ = crand.Read(b[:])
	return b[0]
}

// Mix is deterministic arithmetic.
func Mix(x byte) byte { return x*31 + 7 }

// Fixture for reachrand across a package boundary, loaded as a
// sim-core package together with its entropy package: a chain that
// leaves the entry's package is followed like one that stays inside
// it.
package fixture

import (
	crand "crypto/rand"

	"repro/internal/lint/testdata/reachcross/entropy"
)

// ProbeLocal reaches crypto/rand through a helper in its own package.
func ProbeLocal() byte { return localEntropy() } // want:reachrand

func localEntropy() byte {
	var b [1]byte
	_, _ = crand.Read(b[:])
	return b[0]
}

// ProbeCross reaches crypto/rand through a function of another module
// package.
func ProbeCross() byte { return entropy.Read() } // want:reachrand

// Fold calls into the other package but reaches no random source.
func Fold(x byte) byte { return entropy.Mix(x) }

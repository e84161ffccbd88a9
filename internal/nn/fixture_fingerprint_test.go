package nn_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strconv"
	"testing"

	"semjoin/internal/core"
	"semjoin/internal/dataset"
)

// TestFixtureModelsFingerprint pins the bits of the model pair trained at
// the benchmark fixture's shape — Drugs, seed 7, one epoch, the default
// LSTM over the walk corpus — as core.SaveModels writes it, at every
// GOMAXPROCS setting. Forty entities keep it quick; the walk sentences
// are the fixture's length.
func TestFixtureModelsFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the fixture's model pair three times")
	}
	const want = "13861eea7769838ff87cf70d6149217d4eca06f92c4432b6e675d24851b611e8"
	c := dataset.ByName("Drugs")(dataset.Config{Entities: 40, Seed: 7})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(p)
		t.Run("procs="+strconv.Itoa(p), func(t *testing.T) {
			var buf bytes.Buffer
			if err := core.SaveModels(&buf, core.TrainModels(c.G, 1, 7)); err != nil {
				t.Fatal(err)
			}
			s := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(s[:]); got != want {
				t.Fatalf("fixture models sha256 = %s, want %s", got, want)
			}
		})
	}
}

package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strconv"
	"testing"
)

// fingerprintProcs are the GOMAXPROCS settings the training fingerprints
// must not depend on: training splits only independent outputs over its
// workers, never a sum, so every setting yields the same bits.
var fingerprintProcs = []int{1, 2, 4}

// atProcs runs f at each GOMAXPROCS setting and restores the setting.
func atProcs(t *testing.T, f func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range fingerprintProcs {
		runtime.GOMAXPROCS(p)
		t.Run("procs="+strconv.Itoa(p), f)
	}
}

// fingerprintCorpus is a fixed toy corpus with sentences of several
// lengths (T from 1 to 10 predicted tokens, so every register block size
// and a one-token sentence occur) over a vocabulary of more than two
// workers' shares of output rows (rowGrain each).
func fingerprintCorpus() [][]string {
	var corpus [][]string
	for i := 0; i < 90; i++ {
		sent := []string{"s" + strconv.Itoa(i%7)}
		for j := 0; j < i%9; j++ {
			sent = append(sent, "w"+strconv.Itoa((i*j+3*j+i)%200))
		}
		corpus = append(corpus, sent)
	}
	return append(corpus, []string{})
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestLSTMTrainingFingerprint pins the bits of a trained LSTM — Save's
// bytes, which hold every parameter — against the value the per-token
// training loop produced, at every GOMAXPROCS setting. A reordered sum
// anywhere in training (say dh_t summed as per-worker partials over the
// output rows) changes the last bits of some weight and fails it.
func TestLSTMTrainingFingerprint(t *testing.T) {
	const want = "5f6a6680eac4de7f8448f2dbcaf7bee440a2f4d3ff5ecfc13b064fed221c5061"
	corpus := fingerprintCorpus()
	atProcs(t, func(t *testing.T) {
		m := NewLSTM(BuildVocab(corpus, 1), LSTMConfig{EmbedDim: 8, HiddenDim: 12, Seed: 4})
		ppl := m.Train(corpus, 3)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if got := sha(buf.Bytes()); got != want {
			t.Fatalf("trained LSTM sha256 = %s (ppl %v), want %s", got, ppl, want)
		}
	})
}

// TestTransformerTrainingFingerprint is the same pin for the Transformer,
// over a little-endian dump of its parameters (it has no Save).
func TestTransformerTrainingFingerprint(t *testing.T) {
	const want = "08688077c122275bd3344dbffa3d8c0e1b5419c38afd13ccbae3e8b9c421d894"
	corpus := fingerprintCorpus()
	atProcs(t, func(t *testing.T) {
		m := NewTransformer(BuildVocab(corpus, 1), TransformerConfig{ModelDim: 16, AttnDim: 6, FFNDim: 10, Seed: 4})
		m.Train(corpus, 3)
		var buf []byte
		for _, p := range m.tensors {
			for _, x := range p.params {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			}
		}
		if got := sha(buf); got != want {
			t.Fatalf("trained Transformer sha256 = %s, want %s", got, want)
		}
	})
}

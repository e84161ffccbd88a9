package expr

import "testing"

func TestRecoveryAllCollections(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	for _, name := range []string{"Drugs", "FakeNews", "Movie", "MovKB", "Paper", "Celebrity"} {
		name := name
		t.Run(name, func(t *testing.T) {
			// Each collection trains its own models on one goroutine;
			// collections share nothing, so they train side by side.
			t.Parallel()
			r := sharedRun(name, 40, 7)
			res := Recovery(r, RecoveryOptions{H: 30})
			t.Logf("%s: mean %v (%.2fs)", name, res.Mean, res.Seconds)
			for attr, p := range res.PerAttr {
				t.Logf("  %s: %v", attr, p)
			}
			if res.Mean.F1 < 0.8 {
				t.Errorf("%s mean F1 = %.3f, want >= 0.8", name, res.Mean.F1)
			}
		})
	}
}

func TestRecoveryRndPathWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	r := sharedRun("Paper", 40, 7)
	guided := Recovery(r, RecoveryOptions{H: 30})
	random := Recovery(r, RecoveryOptions{H: 30, Variant: VRndPath})
	t.Logf("guided %v vs random %v", guided.Mean, random.Mean)
	if random.Mean.F1 > guided.Mean.F1+0.05 {
		t.Errorf("random paths should not beat guided: %.3f vs %.3f",
			random.Mean.F1, guided.Mean.F1)
	}
}

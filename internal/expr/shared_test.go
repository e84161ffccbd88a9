package expr

import (
	"sync"
	"testing"
)

// Runs and query environments are shared per (collection, entities,
// seed) across this package's tests: model training dominates their
// time, and a Run trains each model once from its seed, so a test
// sees the same models whether it trained them or an earlier test
// did. Only tests that never update the data may take a shared one; a
// test that applies updates prepares its own.
type sharedKey struct {
	coll     string
	entities int
	seed     uint64
}

// sharedEntry builds its Run and QueryEnv once each, so that parallel
// tests wanting different keys build side by side.
type sharedEntry struct {
	runOnce, envOnce sync.Once
	run              *Run
	env              *QueryEnv
	envErr           error
}

var shared sync.Map // sharedKey → *sharedEntry

func sharedFor(coll string, entities int, seed uint64) *sharedEntry {
	e, _ := shared.LoadOrStore(sharedKey{coll, entities, seed}, &sharedEntry{})
	return e.(*sharedEntry)
}

// sharedRun returns the shared Run for the key, preparing it on first
// use.
func sharedRun(coll string, entities int, seed uint64) *Run {
	e := sharedFor(coll, entities, seed)
	e.runOnce.Do(func() { e.run = mustPrepare(Prepare(coll, entities, seed)) })
	return e.run
}

// sharedEnv returns the shared QueryEnv over the key's shared Run,
// building it on first use.
func sharedEnv(t *testing.T, coll string, entities int, seed uint64) *QueryEnv {
	t.Helper()
	r := sharedRun(coll, entities, seed)
	e := sharedFor(coll, entities, seed)
	e.envOnce.Do(func() { e.env, e.envErr = NewQueryEnv(r) })
	if e.envErr != nil {
		t.Fatalf("%s env: %v", coll, e.envErr)
	}
	return e.env
}

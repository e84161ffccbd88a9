package gsql

import "testing"

// showSessionMap runs SHOW SESSION and indexes it by setting name.
func showSessionMap(t *testing.T, e *Engine) map[string]string {
	t.Helper()
	out, err := e.Query(`show session`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, tup := range out.Tuples {
		got[out.Get(tup, "setting").String()] = out.Get(tup, "value").String()
	}
	return got
}

func TestShowSessionStatement(t *testing.T) {
	e, _, _ := newObsEngine(t)
	got := showSessionMap(t, e)
	if len(got) != 3 {
		t.Fatalf("SHOW SESSION rows = %v, want 2 settings and version_seq", got)
	}
	if got["slow_query_ms"] != "0" || got["version_seq"] != "0" {
		t.Fatalf("defaults = %v", got)
	}
	if got["parallelism"] == "" || got["parallelism"] == "0" {
		t.Fatalf("parallelism = %q, want the effective worker count", got["parallelism"])
	}

	// Every SET knob is reflected.
	for _, q := range []string{
		`set parallelism 2`, `set slow_query_ms 150`,
	} {
		if _, err := e.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	got = showSessionMap(t, e)
	if got["parallelism"] != "2" || got["slow_query_ms"] != "150" {
		t.Fatalf("after SETs: %v", got)
	}

	// A sibling engine over the same catalog is untouched: the
	// settings are engine-scoped, which is what makes them
	// session-scoped in the network server.
	sibling, _, _ := newObsEngine(t)
	if got := showSessionMap(t, sibling); got["slow_query_ms"] == "150" {
		t.Fatalf("sibling engine inherited session settings: %v", got)
	}

	if _, err := e.Query(`show session please`); err == nil {
		t.Fatal("trailing arguments should error")
	}
}

// Package fixture exercises the walorder analyzer: in functions that
// append to a *wal.Log, the in-memory apply must come strictly after
// the Append (log-then-apply).
package fixture

import "semjoin/internal/wal"

type store struct {
	log *wal.Log
}

// apply stands in for DurableStore.apply: decode one record, mutate the
// in-memory state.
func (s *store) apply(payload []byte) error { return nil }

// Apply-before-log: a crash between the two lines loses the update.
func (s *store) applyThenLog(payload []byte) error {
	if err := s.apply(payload); err != nil { // want "in-memory apply precedes the WAL Append"
		return err
	}
	if _, err := s.log.Append(1, payload); err != nil {
		return err
	}
	return nil
}

// The branch shape: on the retry path the apply has already happened
// when Append runs.
func (s *store) applyBeforeLogOnRetry(payload []byte, retry bool) error {
	if retry {
		if err := s.apply(payload); err != nil { // want "in-memory apply precedes the WAL Append"
			return err
		}
	}
	_, err := s.log.Append(2, payload)
	return err
}

// Loop shape: the first iteration's apply runs before anything has
// been logged.
func (s *store) applyInLoop(batches [][]byte) error {
	for _, b := range batches {
		if err := s.apply(b); err != nil { // want "in-memory apply precedes the WAL Append"
			return err
		}
		if _, err := s.log.Append(1, b); err != nil {
			return err
		}
	}
	return nil
}

// -------- compliant shapes --------

// The canonical DurableStore write path: log (fsynced per policy),
// then apply.
func (s *store) logThenApply(payload []byte) error {
	if _, err := s.log.Append(1, payload); err != nil {
		return err
	}
	return s.apply(payload)
}

func (s *store) logSyncThenApply(payload []byte) error {
	if _, err := s.log.Append(3, payload); err != nil {
		return err
	}
	if err := s.log.Sync(); err != nil {
		return err
	}
	return s.apply(payload)
}

// The per-record loop: every path to an apply has already logged that
// iteration's record — the back-edge to the next Append is not an
// ordering violation.
func (s *store) logThenApplyLoop(batches [][]byte) error {
	for _, b := range batches {
		if _, err := s.log.Append(1, b); err != nil {
			return err
		}
		if err := s.apply(b); err != nil {
			return err
		}
	}
	return nil
}

// Replay applies without logging — no Append in the function, so the
// analyzer stays silent.
func (s *store) replay(records [][]byte) error {
	for _, r := range records {
		if err := s.apply(r); err != nil {
			return err
		}
	}
	return nil
}

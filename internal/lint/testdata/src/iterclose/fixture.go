// Package fixture exercises the iterclose analyzer. The cursor type
// has the iterator shape (Open/NextBatch/Close) the analyzer keys on.
package fixture

import "context"

type cursor struct{ opened bool }

func (c *cursor) Open(ctx context.Context) error { c.opened = true; return nil }
func (c *cursor) NextBatch() ([]int, error)      { return nil, nil }
func (c *cursor) Close() error                   { c.opened = false; return nil }

// Rule 1: opened, never closed, never escapes.
func leak(ctx context.Context) {
	c := &cursor{}
	c.Open(ctx) // want "iterator is opened but never closed"
	c.NextBatch()
}

// Rule 2: the error return from Open leaks what the tree opened.
func openErrLeak(ctx context.Context, c *cursor) error {
	if err := c.Open(ctx); err != nil { // want "error path after c.Open returns without closing"
		return err
	}
	defer c.Close()
	return nil
}

// Rule 2, split-assignment form.
func openErrLeakSplit(ctx context.Context, c *cursor) error {
	err := c.Open(ctx)
	if err != nil { // want "error path after c.Open returns without closing"
		return err
	}
	c.Close()
	return nil
}

// Closing on the error path satisfies both rules (the Materialize
// pattern).
func openErrClosed(ctx context.Context) error {
	c := &cursor{}
	if err := c.Open(ctx); err != nil {
		c.Close()
		return err
	}
	defer c.Close()
	return nil
}

// A defer placed before Open covers its error path too.
func openErrDeferred(ctx context.Context, c *cursor) error {
	defer c.Close()
	if err := c.Open(ctx); err != nil {
		return err
	}
	return nil
}

// An iterator handed to the caller is the caller's to close.
func handoff(ctx context.Context) *cursor {
	c := &cursor{}
	c.Open(ctx)
	return c
}

// An iterator passed to another function escapes likewise.
func delegate(ctx context.Context) {
	c := &cursor{}
	c.Open(ctx)
	register(c)
}

func register(c *cursor) { _ = c }

// The drain-then-close discipline satisfies both rules.
func drainedAndClosed(ctx context.Context) error {
	c := &cursor{}
	if err := c.Open(ctx); err != nil {
		c.Close()
		return err
	}
	for {
		b, err := c.NextBatch()
		if err != nil {
			c.Close()
			return err
		}
		if b == nil {
			break
		}
	}
	return c.Close()
}

// -------- WAL recovery shapes --------
//
// segmentCursor is the write-ahead-log recovery scan: open a segment
// file, iterate record batches until a torn or corrupt frame, close. The
// torn-tail early return is exactly where a scanner is tempted to
// abandon the handle.

type segmentCursor struct{ off int64 }

func (c *segmentCursor) Open(ctx context.Context) error { c.off = 0; return nil }
func (c *segmentCursor) NextBatch() ([]int, error)      { c.off++; return nil, nil }
func (c *segmentCursor) Close() error                   { return nil }

// Rule 1 on the recovery shape: replay stops at the torn tail but the
// segment is never closed on any path.
func replayLeak(ctx context.Context) {
	c := &segmentCursor{}
	c.Open(ctx) // want "iterator is opened but never closed"
	for {
		if _, err := c.NextBatch(); err != nil {
			return
		}
	}
}

// Rule 2 on the recovery shape: Open of a segment can fail (missing
// or unreadable file) and must not strand it.
func replayOpenErrLeak(ctx context.Context, c *segmentCursor) error {
	if err := c.Open(ctx); err != nil { // want "error path after c.Open returns without closing"
		return err
	}
	defer c.Close()
	return nil
}

// The compliant scan: truncate-at-corruption still closes via the
// early defer, mirroring wal.Open's segment loop.
func replayTruncates(ctx context.Context) error {
	c := &segmentCursor{}
	if err := c.Open(ctx); err != nil {
		c.Close()
		return err
	}
	defer c.Close()
	for {
		if _, err := c.NextBatch(); err != nil {
			return nil // torn tail: stop replaying, keep the prefix
		}
	}
}

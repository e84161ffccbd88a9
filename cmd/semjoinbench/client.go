package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"time"

	"semjoin/internal/rel"
	"semjoin/internal/server"
)

// client is one wire session: a TCP connection to the in-process
// server, driven by exactly one goroutine.
type client struct {
	addr     string
	deadline time.Duration
	prepared []server.Request // replayed after a redial

	conn net.Conn
	rd   *bufio.Reader
	// respBytes counts response line bytes (server.resp_bytes_per_req).
	respBytes int64
}

// errDeadline marks a request the client gave up on: the blow-up guard
// that turns a runaway plan into a counted failure.
var errDeadline = errors.New("client deadline exceeded")

func dial(addr string, deadline time.Duration) (*client, error) {
	c := &client{addr: addr, deadline: deadline}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *client) connect() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.rd = bufio.NewReaderSize(conn, 64<<10)
	var hello server.Response
	if _, err := c.read(&hello); err != nil || hello.Code != "hello" {
		conn.Close()
		return fmt.Errorf("no hello banner: %v", err)
	}
	for _, p := range c.prepared {
		if resp, _, err := c.roundTrip(p); err != nil || !resp.OK {
			conn.Close()
			return fmt.Errorf("prepare %s: %v %s", p.Name, err, resp.Error)
		}
	}
	return nil
}

// prepare registers a statement and remembers it for redials.
func (c *client) prepare(name, query string) error {
	req := server.Request{Op: server.OpPrepare, Name: name, Query: query}
	resp, _, err := c.do(req)
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("prepare %s: %s", name, resp.Error)
	}
	c.prepared = append(c.prepared, req)
	return nil
}

// do sends one request and reads its response, returning the response
// line's size. A request that outlives the deadline returns errDeadline
// and leaves the session on a fresh connection: the late response of
// the old one must not be read as the answer to the next request.
func (c *client) do(req server.Request) (server.Response, int, error) {
	resp, n, err := c.roundTrip(req)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		c.conn.Close()
		if rerr := c.connect(); rerr != nil {
			return resp, n, fmt.Errorf("%w; redial: %v", errDeadline, rerr)
		}
		return resp, n, errDeadline
	}
	return resp, n, err
}

func (c *client) roundTrip(req server.Request) (server.Response, int, error) {
	var resp server.Response
	line, err := json.Marshal(req)
	if err != nil {
		return resp, 0, err
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.deadline)); err != nil {
		return resp, 0, err
	}
	if _, err := c.conn.Write(append(line, '\n')); err != nil {
		return resp, 0, err
	}
	n, err := c.read(&resp)
	if err == nil {
		c.respBytes += int64(n)
	}
	return resp, n, err
}

// read decodes one response line of any length.
func (c *client) read(out *server.Response) (int, error) {
	var line []byte
	for {
		part, err := c.rd.ReadSlice('\n')
		line = append(line, part...)
		if err == nil {
			break
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return len(line), err
		}
	}
	return len(line), json.Unmarshal(line, out)
}

// close ends the session politely; errors no longer matter.
func (c *client) close() {
	if c.conn == nil {
		return
	}
	_, _, _ = c.do(server.Request{Op: server.OpClose})
	c.conn.Close()
	c.conn = nil
}

// digest identifies a result up to row order: the row count and the
// sum of the rows' hashes.
type digest struct {
	Rows int
	Sum  uint64
}

// rowHash hashes one row, cells joined by a unit separator. A digest
// adds its rows' hashes, so any permutation of the same bag agrees.
func rowHash(cells []string) uint64 {
	h := fnv.New64a()
	for _, cell := range cells {
		h.Write([]byte(cell))
		h.Write([]byte{0x1f})
	}
	return h.Sum64()
}

// digestRows digests a wire result.
func digestRows(rows [][]string) digest {
	d := digest{Rows: len(rows)}
	for _, row := range rows {
		d.Sum += rowHash(row)
	}
	return d
}

// digestRelation digests a relation as the wire would render it.
func digestRelation(r *rel.Relation) digest {
	d := digest{Rows: len(r.Tuples)}
	var cells []string
	for _, t := range r.Tuples {
		cells = cells[:0]
		for _, v := range t {
			cells = append(cells, v.String())
		}
		d.Sum += rowHash(cells)
	}
	return d
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"pyquery/internal/server"
)

// A service is one qserved instance in this process: server.New with the
// default Config, its Handler served by an http.Server on a loopback
// listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	tr     *http.Transport
	served chan error // receives Serve's result once it returns
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(nil, server.Config{})
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		tr:     &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for Serve to return and drains the
// server.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.tr.CloseIdleConnections()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := s.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	return err
}

// A client is one connection's worth of request state: its own http.Client
// over the shared transport and a reusable response buffer.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func (s *service) client() *client {
	return &client{hc: &http.Client{Transport: s.tr}, base: s.base}
}

// do sends one request and reads the whole response into c.buf. A non-2xx
// status is an error carrying the response body.
func (c *client) do(method, path string, body []byte) error {
	rq, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	rq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(rq)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return nil
}

func (c *client) register(st stmt) error {
	body, _ := json.Marshal(map[string]string{"query": st.Src})
	return c.do(http.MethodPut, "/stmt/"+st.Name, body)
}

// execN runs a statement and returns the response's "n" field. The rows
// come first in the response and can run to megabytes, so n is read from
// the tail rather than by decoding the body.
func (c *client) execN(name string, body []byte) (int, error) {
	if err := c.do(http.MethodPost, "/stmt/"+name+"/exec", body); err != nil {
		return 0, err
	}
	return tailInt(c.buf.Bytes(), `,"n":`)
}

// execRows runs a statement and returns its decoded rows, rendered for
// set comparison.
func (c *client) execRows(name string, body []byte) ([]string, error) {
	if err := c.do(http.MethodPost, "/stmt/"+name+"/exec", body); err != nil {
		return nil, err
	}
	var resp struct {
		Rows [][]any `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(c.buf.Bytes()))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("exec %s: decode: %w", name, err)
	}
	out := make([]string, len(resp.Rows))
	parts := make([]string, 0, 4)
	for i, row := range resp.Rows {
		parts = parts[:0]
		for _, v := range row {
			parts = append(parts, fmt.Sprint(v))
		}
		out[i] = joinRow(parts)
	}
	return out, nil
}

// mutate posts a writer batch to /rel/E/insert or /rel/E/delete and returns
// the "changed" count.
func (c *client) mutate(op string, body []byte) (int, error) {
	if err := c.do(http.MethodPost, "/rel/E/"+op, body); err != nil {
		return 0, err
	}
	return tailInt(c.buf.Bytes(), `"changed":`)
}

// refresh refreshes a view and returns how many rows it added and removed.
func (c *client) refresh(name string) (added, removed int, err error) {
	if err := c.do(http.MethodPost, "/stmt/"+name+"/refresh", nil); err != nil {
		return 0, 0, err
	}
	b := c.buf.Bytes()
	if added, err = countRows(b, `"added":`); err != nil {
		return 0, 0, err
	}
	removed, err = countRows(b, `"removed":`)
	return added, removed, err
}

// tailInt parses the integer after the last occurrence of key.
func tailInt(b []byte, key string) (int, error) {
	i := bytes.LastIndex(b, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("response has no %s field: %.80s", key, b)
	}
	i += len(key)
	j := i
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	return strconv.Atoi(string(b[i:j]))
}

// countRows counts the rows of the array of flat arrays after key. Rows
// hold integers and generated node names, which contain no brackets, so
// every '[' after the outer one opens a row.
func countRows(b []byte, key string) (int, error) {
	i := bytes.Index(b, []byte(key))
	if i < 0 || i+len(key) >= len(b) || b[i+len(key)] != '[' {
		return 0, fmt.Errorf("response has no %s array: %.80s", key, b)
	}
	n, depth := 0, 0
	for _, ch := range b[i+len(key):] {
		switch ch {
		case '[':
			depth++
			if depth == 2 {
				n++
			}
		case ']':
			depth--
			if depth == 0 {
				return n, nil
			}
		}
	}
	return 0, fmt.Errorf("unterminated %s array", key)
}

func joinRow(parts []string) string {
	var b bytes.Buffer
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		b.WriteString(p)
	}
	return b.String()
}

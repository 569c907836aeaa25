package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestStalledHeaderIsDisconnected: a client that sends half a request
// header and then goes silent is cut off once readHeaderTimeout passes,
// while a client that sends a whole request is still served.
func TestStalledHeaderIsDisconnected(t *testing.T) {
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "GET / HTTP/1.1\r\nHost: stpbcastd\r\nX-Partial"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	stalled.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	// net/http may answer 400 or 408 before closing; what matters is
	// the close, and that it waited for the timeout.
	got, err := io.ReadAll(stalled)
	if err != nil {
		t.Fatalf("stalled client: %v after reading %q; want the server to close the connection", err, got)
	}
	if len(got) > 0 && !strings.HasPrefix(string(got), "HTTP/1.1 4") {
		t.Fatalf("stalled client got %q, want a 4xx answer or nothing", got)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}

	whole, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	if _, err := io.WriteString(whole, "GET / HTTP/1.1\r\nHost: stpbcastd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(whole), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("complete request: status %d body %q err %v", resp.StatusCode, body, err)
	}
}

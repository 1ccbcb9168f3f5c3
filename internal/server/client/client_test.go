package client

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"kexclusion/internal/wire"
	"kexclusion/internal/wire/wiretest"
)

// fakeEndpoint accepts one connection and runs serve against it.
func fakeEndpoint(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		serve(conn)
	}()
	return ln.Addr().String()
}

func TestDialRejectsNonProtocolEndpoint(t *testing.T) {
	addr := fakeEndpoint(t, func(conn net.Conn) {
		// A frame whose payload is not a Hello (wrong magic).
		wire.WriteFrame(conn, []byte("HTTP/1.1 200 OK\r\n\r\nhello world junk..."))
	})
	_, err := DialTimeout(addr, 2*time.Second)
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want protocol-magic error, got %v", err)
	}
}

// TestDialRejectsKx03Hello: a server of the retired kx03/kx04 protocol
// sends an otherwise well-formed admission Hello under the old magic;
// the client refuses it at the handshake instead of sending frames the
// peer cannot parse.
func TestDialRejectsKx03Hello(t *testing.T) {
	addr := fakeEndpoint(t, func(conn net.Conn) {
		b := wire.Hello{Status: wire.StatusOK, N: 1, K: 1, Shards: 1, Msg: "kx04"}.Encode()
		binary.BigEndian.PutUint32(b, 0x6b783033) // "kx03"
		wire.WriteFrame(conn, b)
	})
	_, err := DialTimeout(addr, 2*time.Second)
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want protocol-magic error, got %v", err)
	}
}

func TestDialSurfacesBusy(t *testing.T) {
	addr := fakeEndpoint(t, func(conn net.Conn) {
		wire.WriteHello(conn, wire.Hello{Status: wire.StatusBusy, RetryAfterMillis: 250, Msg: "all leased"})
	})
	_, err := DialTimeout(addr, 2*time.Second)
	var be *BusyError
	if !errors.As(err, &be) || be.RetryAfter != 250*time.Millisecond {
		t.Fatalf("want *BusyError with hint, got %v", err)
	}
	// The wire-level error stays reachable through the wrapper.
	var we *wire.Error
	if !errors.As(err, &we) || we.Status != wire.StatusBusy || !strings.Contains(we.Msg, "all leased") {
		t.Fatalf("want busy *wire.Error via Unwrap, got %v", err)
	}
	if !Retryable(err) {
		t.Fatal("busy rejection not classified retryable")
	}
}

func TestDialHandshakeTimeout(t *testing.T) {
	// Endpoint accepts but never sends a Hello.
	addr := fakeEndpoint(t, func(conn net.Conn) {
		time.Sleep(5 * time.Second)
	})
	start := time.Now()
	_, err := DialTimeout(addr, 200*time.Millisecond)
	if err == nil {
		t.Fatal("handshake against a silent endpoint succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("handshake timeout not honoured: %v", time.Since(start))
	}
}

func TestResponseIDMismatch(t *testing.T) {
	addr := fakeEndpoint(t, func(conn net.Conn) {
		wire.WriteHello(conn, wiretest.Hello)
		wiretest.Serve(conn, func(req wire.Request) wire.Response {
			return wire.Response{ID: req.ID + 99, Status: wire.StatusOK}
		})
	})
	c, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err == nil || !strings.Contains(err.Error(), "response id") {
		t.Fatalf("want id-mismatch error, got %v", err)
	}
}

package loadctl_test

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/tpctl/loadctl"
)

// TestPublicServerAPI exercises the exported front-end surface: build a
// server from the public config, run transactions through the full
// admission → execution → metrics path, and switch the controller live.
func TestPublicServerAPI(t *testing.T) {
	paCfg := loadctl.DefaultPAConfig()
	paCfg.Bounds = loadctl.Bounds{Lo: 2, Hi: 32}
	paCfg.Initial = 16
	srv, err := loadctl.NewServer(loadctl.ServerConfig{
		Controller: loadctl.NewPA(paCfg),
		Engine:     "occ",
		Items:      64,
		KVShards:   4,           // explicit shard count through the public config
		Interval:   time.Minute, // frozen: this test checks plumbing, not control
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/txn?class=update&k=3", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || tr.Status != "committed" {
		t.Fatalf("txn: %d/%q", resp.StatusCode, tr.Status)
	}

	if got := srv.Limit(); got != 16 {
		t.Fatalf("Limit() = %v, want initial 16", got)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Controller string `json:"controller"`
		Limit      float64
		Totals     struct {
			Commits uint64 `json:"commits"`
		} `json:"totals"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Controller != "parabola-approximation" || snap.Totals.Commits != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}

	if _, err := loadctl.NewServer(loadctl.ServerConfig{}); err == nil {
		t.Fatal("config without controller accepted")
	}
	if _, err := loadctl.NewServer(loadctl.ServerConfig{
		Controller: loadctl.NewStatic(4), Engine: "bogus",
	}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := loadctl.NewServer(loadctl.ServerConfig{
		Controller: loadctl.NewStatic(4), KVShards: -1,
	}); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestServeGracefulDrain runs the full Serve lifecycle: a transaction is
// in flight when the context is cancelled (the SIGTERM path); the server
// must advertise "draining", finish the in-flight work, and return nil —
// the exit-0 contract the cluster tier's kill/restart scenarios rely on.
func TestServeGracefulDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // Serve re-binds; the tiny race window is fine in tests

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- loadctl.Serve(ctx, loadctl.ServerConfig{
			Addr:         addr,
			Controller:   loadctl.NewStatic(8),
			Items:        64,
			DrainTimeout: 5 * time.Second,
		})
	}()
	base := "http://" + addr
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := http.Get(base + "/healthz"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A large transaction in flight across the cancellation: k touches
	// every item several times over to stretch execution a little.
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/txn?shape=update&k=64", "application/json", nil)
		if err != nil {
			inflight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()

	if code := <-inflight; code != http.StatusOK && code != -1 {
		// -1 (connection error) can only happen if the request raced the
		// listener teardown before being accepted; an accepted request
		// must complete.
		t.Fatalf("in-flight txn during drain = %d", code)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after a clean drain, want nil", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

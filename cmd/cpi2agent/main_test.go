package main

import (
	"net"
	"testing"
)

// The admin server takes unauthenticated POST /cap, /uncap and
// /release-all, so by default it must not listen beyond this host.
func TestDefaultAdminAddrIsLoopback(t *testing.T) {
	addr, err := net.ResolveTCPAddr("tcp", defaultAdminAddr)
	if err != nil {
		t.Fatal(err)
	}
	if !addr.IP.IsLoopback() {
		t.Errorf("default -metrics-addr %q resolves to %v, not a loopback address", defaultAdminAddr, addr.IP)
	}
}

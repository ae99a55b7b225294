package main

import "testing"

// TestServerOptions maps every -transport value, on a platform with the
// file link and on one without: auto degrades to TCP where shm
// fails, and a bad value fails.
func TestServerOptions(t *testing.T) {
	for _, tc := range []struct {
		transport string
		supported bool
		wantShm   bool
		wantErr   bool
	}{
		{"tcp", true, false, false},
		{"tcp", false, false, false},
		{"shm", true, true, false},
		{"shm", false, false, true},
		{"auto", true, true, false},
		{"auto", false, false, false},
		{"rdma", true, false, true},
		{"", false, false, true},
	} {
		opts, err := serverOptions(tc.transport, tc.supported)
		if (err != nil) != tc.wantErr {
			t.Errorf("-transport %q (shm supported: %v): err = %v, want error: %v", tc.transport, tc.supported, err, tc.wantErr)
		}
		if opts.EnableShm != tc.wantShm {
			t.Errorf("-transport %q (shm supported: %v): EnableShm = %v, want %v", tc.transport, tc.supported, opts.EnableShm, tc.wantShm)
		}
	}
}

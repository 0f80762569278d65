package main

import "testing"

// TestBaseURL: the logged URL keeps the listen address's host and names
// localhost only for an address with none.
func TestBaseURL(t *testing.T) {
	for addr, want := range map[string]string{
		":8080":           "http://localhost:8080",
		"127.0.0.1:18481": "http://127.0.0.1:18481",
		"[::1]:9000":      "http://[::1]:9000",
	} {
		if got := baseURL(addr); got != want {
			t.Errorf("baseURL(%q) = %q, want %q", addr, got, want)
		}
	}
}

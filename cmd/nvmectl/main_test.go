package main

import (
	"strings"
	"testing"
)

// TestResolveRejectsBadOptions pins the flag values that used to print
// nothing, list a default-sized array, or panic inside the boot: each is
// now a one-line error before anything boots.
func TestResolveRejectsBadOptions(t *testing.T) {
	cases := []struct {
		name    string
		cmd     string
		config  string // "" = irq
		ssds    int
		dev     int
		wantErr string // "" = accepted
	}{
		{name: "profile of a device past the array", cmd: "profile", ssds: 4, dev: 99,
			wantErr: "profile: -dev must be in [0,4), got 99"},
		{name: "negative ssds", cmd: "list", ssds: -2, dev: -1, wantErr: "-ssds must be >= 1, got -2"},
		{name: "zero ssds", cmd: "list", ssds: 0, dev: -1, wantErr: "-ssds must be >= 1, got 0"},
		{name: "profile of the last device", cmd: "profile", ssds: 4, dev: 3},
		{name: "profile of every device", cmd: "profile", ssds: 4, dev: -1},
		{name: "profile below -1", cmd: "profile", ssds: 4, dev: -2,
			wantErr: "profile: -dev must be in [0,4), got -2"},
		{name: "list", cmd: "list", ssds: 1, dev: -1},
		{name: "list past the array", cmd: "list", ssds: 4, dev: 4,
			wantErr: "list: -dev must be in [0,4), got 4"},
		{name: "id-ctrl without a device", cmd: "id-ctrl", ssds: 4, dev: -1,
			wantErr: "id-ctrl: -dev must be in [0,4), got -1"},
		{name: "smart-log past the array", cmd: "smart-log", ssds: 4, dev: 4,
			wantErr: "smart-log: -dev must be in [0,4), got 4"},
		{name: "format of device 0", cmd: "format", ssds: 4, dev: 0},
		{name: "unknown command", cmd: "reset", ssds: 4, dev: 0,
			wantErr: `unknown command "reset" (have list, id-ctrl, smart-log, format, profile)`},
		{name: "unknown config", cmd: "list", config: "nope", ssds: 4, dev: -1,
			wantErr: `unknown config "nope" (have default, chrt, isolcpus, irq, expfw)`},
		{name: "expfw config", cmd: "smart-log", config: "expfw", ssds: 4, dev: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			config := tc.config
			if config == "" {
				config = "irq"
			}
			_, err := resolve(tc.cmd, config, tc.ssds, tc.dev)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want error containing %q", tc.wantErr)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.wantErr) || strings.Contains(msg, "\n") {
				t.Fatalf("error %q, want one line containing %q", msg, tc.wantErr)
			}
		})
	}
}

package core

import (
	"strings"
	"testing"
	"time"
)

// TestConfigValidate pins the up-front configuration checks: stage
// dependencies and resource fields are rejected with a diagnostic
// before any compilation work happens.
func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr string // substring; empty means valid
	}{
		{name: "reference", cfg: Reference()},
		{name: "compiled", cfg: Compiled()},
		{name: "mono only", cfg: Config{Monomorphize: true}},
		// Jobs is deprecated and ignored: any value, even a negative one,
		// is accepted.
		{name: "default jobs", cfg: Config{Jobs: 0}},
		{name: "explicit jobs", cfg: Config{Jobs: 8}},
		{name: "norm without mono", cfg: Config{Normalize: true}, wantErr: "Normalize requires Monomorphize"},
		{name: "opt without norm", cfg: Config{Monomorphize: true, Optimize: true}, wantErr: "Optimize requires Normalize"},
		{name: "negative jobs", cfg: Config{Jobs: -1}},
		{name: "default max errors", cfg: Config{MaxErrors: 0}},
		{name: "explicit max errors", cfg: Config{MaxErrors: 5}},
		{name: "negative max errors", cfg: Config{MaxErrors: -1}, wantErr: "MaxErrors must be >= 0"},
		{name: "negative max steps", cfg: Config{MaxSteps: -5}, wantErr: "MaxSteps must be >= 0"},
		{name: "negative max depth", cfg: Config{MaxDepth: -1}, wantErr: "MaxDepth must be >= 0"},
		{name: "negative timeout", cfg: Config{Timeout: -time.Second}, wantErr: "Timeout must be >= 0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

// TestCompileRejectsInvalidConfig verifies the validation runs up front
// in Compile/CompileFiles and surfaces as the returned error rather
// than silent misbehavior.
func TestCompileRejectsInvalidConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Normalize: true},
		{MaxSteps: -4},
	} {
		if _, err := Compile("t.v", "def main() -> int { return 0; }", cfg); err == nil {
			t.Fatalf("Compile with invalid config %+v: want error, got nil", cfg)
		}
	}
}

package core

import (
	"reflect"
	"testing"

	"repro/internal/profile"
)

// TestStoreFingerprintCoversConfig enumerates every Config field by
// reflection and asserts the storeKeyFields classification is total:
// a field added to Config without a classification fails here, so the
// artifact-store key can never silently drift from the config surface.
// Each field is then mutated and the fingerprint must move exactly for
// the in-key fields.
func TestStoreFingerprintCoversConfig(t *testing.T) {
	base := Config{Monomorphize: true, Normalize: true, Optimize: true}
	baseFP := base.Fingerprint()

	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		inKey, classified := storeKeyFields[f.Name]
		if !classified {
			t.Errorf("Config.%s has no storeKeyFields classification: decide whether it shapes compiled output", f.Name)
			continue
		}
		mutated := base
		mv := reflect.ValueOf(&mutated).Elem().Field(i)
		switch f.Name {
		case "PGO":
			prof := &profile.Profile{}
			mv.Set(reflect.ValueOf(prof))
		default:
			switch mv.Kind() {
			case reflect.Bool:
				mv.SetBool(!mv.Bool())
			case reflect.Int, reflect.Int64:
				mv.SetInt(mv.Int() + 7)
			case reflect.String:
				mv.SetString(mv.String() + "x")
			default:
				t.Fatalf("Config.%s: unhandled kind %s — extend the audit", f.Name, mv.Kind())
			}
		}
		moved := mutated.Fingerprint() != baseFP
		if inKey && !moved {
			t.Errorf("Config.%s is classified in-key but mutating it left the fingerprint unchanged", f.Name)
		}
		if !inKey && moved {
			t.Errorf("Config.%s is classified output-irrelevant but mutating it moved the fingerprint", f.Name)
		}
	}
}

// TestStoreFingerprintPGOProfiles: two different profiles must not
// share artifacts — PGO steers devirtualization and inlining.
func TestStoreFingerprintPGOProfiles(t *testing.T) {
	base := Config{Monomorphize: true, Normalize: true, Optimize: true}
	a, b := base, base
	a.PGO = &profile.Profile{Funcs: map[string]*profile.Func{"f": {Calls: 1}}}
	b.PGO = &profile.Profile{Funcs: map[string]*profile.Func{"f": {Calls: 2}}}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatalf("different PGO profiles share a fingerprint")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatalf("fingerprint not stable")
	}
}

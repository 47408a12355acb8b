package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// TestBuildVersionHashesExecutable pins the cache key's code identity: under
// go test (no VCS stamp) the version is the sha256 of the running binary,
// not a shared placeholder that two different builds would both carry.
func TestBuildVersionHashesExecutable(t *testing.T) {
	path, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(bin)
	want := hex.EncodeToString(sum[:])
	got := BuildVersion()
	if got == "dev" || got != want {
		t.Fatalf("BuildVersion() = %q, want sha256 of %s = %q", got, path, want)
	}
	if again := BuildVersion(); again != got {
		t.Fatalf("BuildVersion() changed within one process: %q then %q", got, again)
	}
}

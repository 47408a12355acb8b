package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

var (
	versionOnce sync.Once
	versionStr  string
)

// BuildVersion identifies the code that computed a cached result: the hex
// sha256 of the running executable, hashed once per process. It participates
// in every cache key, so results computed by different code never alias —
// not across commits, and not across two uncommitted trees or two `go run`
// builds of one tree either. If the executable cannot be read, the version
// is unique to this process, so its results are never served to other code.
func BuildVersion() string {
	versionOnce.Do(func() {
		if sum, err := hashExecutable(); err == nil {
			versionStr = sum
		} else {
			versionStr = "unhashed-" + strconv.FormatInt(time.Now().UnixNano(), 36)
		}
	})
	return versionStr
}

func hashExecutable() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

package cache

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"opentla/internal/iofs"
)

// Flags is the standard command-line surface of the graph cache, shared by
// the CLIs that build state graphs (agcheck, queueverify).
type Flags struct {
	// Dir is the cache directory; empty disables caching entirely.
	Dir string
	// MaxBytes bounds the cache's total size; 0 means unbounded. After
	// every store the least-recently-used entries are evicted until the
	// cache fits.
	MaxBytes int64
}

// AddFlags registers the cache flags on a flag set.
func (f *Flags) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&f.Dir, "cache-dir", "", "directory for the persistent graph cache (empty = no caching)")
	fs.Int64Var(&f.MaxBytes, "cache-max-bytes", 0, "evict least-recently-used cache entries beyond this total size (0 = unbounded)")
}

// Validate reports flag combinations that cannot mean what the user
// intended. CLIs treat a failure as a usage error (exit 2).
func (f *Flags) Validate() error {
	if f.MaxBytes < 0 {
		return fmt.Errorf("-cache-max-bytes must be >= 0 (got %d)", f.MaxBytes)
	}
	if f.MaxBytes > 0 && f.Dir == "" {
		return fmt.Errorf("-cache-max-bytes requires -cache-dir: there is no cache to bound")
	}
	return nil
}

// CrashAtEnv is the environment variable scripts/chaos.sh uses to plant a
// process kill at the Nth mutating cache-filesystem operation. When set to a
// positive integer, Open wraps the production filesystem in iofs.Crash, and
// the process exits with iofs.CrashExitCode at that operation. Unset, empty,
// or zero means no crash. Chaos-harness use only.
const CrashAtEnv = "OPENTLA_CACHE_CRASH_AT"

// Open returns the configured cache, or nil when caching is disabled.
func (f *Flags) Open() (*Cache, error) {
	if f.Dir == "" {
		return nil, nil
	}
	opts := Options{Retries: -1, MaxBytes: f.MaxBytes}
	if v := os.Getenv(CrashAtEnv); v != "" {
		at, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("cache: %s=%q is not an integer: %w", CrashAtEnv, v, err)
		}
		if at > 0 {
			opts.FS = iofs.NewCrash(iofs.OS{}, at, nil)
		}
	}
	return OpenWith(f.Dir, opts)
}

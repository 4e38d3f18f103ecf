// Package cliflags centralizes the flag definitions and validation that
// the scanpower commands share: cmd/tableone, cmd/scanpower and
// cmd/scanpowerd all take the same -lanes knob, resolved into a Config
// by Config, and anything that boots or joins a scanpowerd cluster takes
// the same cluster flags (-peers, -store-dir, -store-max-bytes).
// Defining them here once keeps the usage strings, defaults and
// validation identical everywhere, so a new shared flag lands in every
// command by construction.
package cliflags

import (
	"flag"
	"fmt"
	"strings"

	"repro"
	"repro/internal/sim"
)

// Lanes registers the -lanes packed batch-width selector on fs and
// returns its value. Validate with ValidateLanes after fs.Parse.
func Lanes(fs *flag.FlagSet) *int {
	return fs.Int("lanes", 0, fmt.Sprintf(
		"packed kernel batch width in patterns/samples per pass, one of %v (0 = default %d); results are bit-identical at every width",
		sim.LaneWidths(), sim.WideLanes))
}

// ValidateLanes resolves a -lanes value to a concrete width: 0 means the
// default (sim.WideLanes), the supported widths pass through, anything
// else is an error naming them.
func ValidateLanes(n int) (int, error) {
	w, err := sim.ResolveLanes(n)
	if err != nil {
		return 0, fmt.Errorf("-lanes must be 0 or one of %v, got %d", sim.LaneWidths(), n)
	}
	return w, nil
}

// Config returns DefaultConfig with the validated -lanes selection
// applied — the shared "flags to Config" step of every command.
func Config(lanes int) (scanpower.Config, error) {
	cfg := scanpower.DefaultConfig()
	w, err := ValidateLanes(lanes)
	if err != nil {
		return cfg, err
	}
	cfg.Lanes = w
	return cfg, nil
}

// Cluster carries the cluster-mode flag values: peer daemons and the
// persistent result store.
type Cluster struct {
	// Peers is the raw comma-separated peer base URLs.
	Peers string
	// StoreDir is the result-store directory ("" disables persistence).
	StoreDir string
	// StoreMaxBytes caps the store's total size (0 = no cap).
	StoreMaxBytes int64
}

// ClusterFlags registers -peers, -store-dir and -store-max-bytes on fs
// and returns their values.
func ClusterFlags(fs *flag.FlagSet) *Cluster {
	var c Cluster
	fs.StringVar(&c.Peers, "peers", "",
		"comma-separated base URLs of the peer scanpowerd nodes (e.g. http://10.0.0.2:8344,http://10.0.0.3:8344); empty = single node")
	fs.StringVar(&c.StoreDir, "store-dir", "",
		"directory of the persistent result store; empty = results die with the process")
	fs.Int64Var(&c.StoreMaxBytes, "store-max-bytes", 256<<20,
		"size cap of the result store in bytes, evicting least-recently-used entries (0 = no cap)")
	return &c
}

// PeerList parses the -peers value into normalized base URLs, dropping
// empties and trailing slashes and defaulting bare host:port entries to
// http.
func (c *Cluster) PeerList() []string {
	if c == nil || strings.TrimSpace(c.Peers) == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(c.Peers, ",") {
		if p = NormalizeEndpoint(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// NormalizeEndpoint canonicalizes one node base URL: trims space and
// trailing slashes and prefixes http:// when no scheme is given. Returns
// "" for blank input.
func NormalizeEndpoint(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimRight(s, "/")
	if s == "" {
		return ""
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}

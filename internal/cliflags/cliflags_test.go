package cliflags

import (
	"flag"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestSharedFlagsParse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	lanes := Lanes(fs)
	cluster := ClusterFlags(fs)

	err := fs.Parse([]string{
		"-lanes", "64",
		"-peers", " 10.0.0.2:8344, http://10.0.0.3:8344/ ,",
		"-store-dir", "/tmp/s", "-store-max-bytes", "1024",
	})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if *lanes != 64 {
		t.Errorf("parsed -lanes %d", *lanes)
	}
	if cluster.StoreDir != "/tmp/s" || cluster.StoreMaxBytes != 1024 {
		t.Errorf("cluster = %+v", cluster)
	}
	want := []string{"http://10.0.0.2:8344", "http://10.0.0.3:8344"}
	if got := cluster.PeerList(); !reflect.DeepEqual(got, want) {
		t.Errorf("PeerList = %v, want %v", got, want)
	}
}

func TestDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	lanes := Lanes(fs)
	cluster := ClusterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *lanes != 0 {
		t.Errorf("-lanes default = %d, want 0", *lanes)
	}
	if cluster.PeerList() != nil {
		t.Errorf("empty -peers parsed to %v", cluster.PeerList())
	}
	if cluster.StoreMaxBytes != 256<<20 {
		t.Errorf("store cap default = %d", cluster.StoreMaxBytes)
	}
}

func TestValidation(t *testing.T) {
	if _, err := ValidateLanes(100); err == nil {
		t.Error("ValidateLanes accepted 100")
	}
	if w, err := ValidateLanes(0); err != nil || w != sim.WideLanes {
		t.Errorf("ValidateLanes(0) = %d, %v; want the %d default", w, err, sim.WideLanes)
	}
	for _, n := range sim.LaneWidths() {
		if w, err := ValidateLanes(n); err != nil || w != n {
			t.Errorf("ValidateLanes(%d) = %d, %v", n, w, err)
		}
	}
	cfg, err := Config(64)
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	if cfg.Lanes != 64 {
		t.Errorf("Config applied lanes %d", cfg.Lanes)
	}
	if _, err := Config(33); err == nil {
		t.Error("Config accepted bad lane width")
	}
}

func TestNormalizeEndpoint(t *testing.T) {
	cases := map[string]string{
		"":                        "",
		"  ":                      "",
		"127.0.0.1:8344":          "http://127.0.0.1:8344",
		"http://a:1/":             "http://a:1",
		"https://b.example:443//": "https://b.example:443",
	}
	for in, want := range cases {
		if got := NormalizeEndpoint(in); got != want {
			t.Errorf("NormalizeEndpoint(%q) = %q, want %q", in, got, want)
		}
	}
}

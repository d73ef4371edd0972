package experiments

import (
	"strings"
	"testing"

	"albireo/internal/core"
	"albireo/internal/nn"
)

func coreDefault() core.Config { return core.DefaultConfig() }

func mustVGG() nn.Model {
	m, _ := nn.ByName("VGG16")
	return m
}

func TestDataflowComparison(t *testing.T) {
	rows := DataflowComparison()
	if len(rows) != 8 { // 4 models x 2 dataflows
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	// Pair up and verify the depth-first advantage on traffic.
	for i := 0; i < len(rows); i += 2 {
		df, ws := rows[i], rows[i+1]
		if df.Model != ws.Model {
			t.Fatal("rows should pair by model")
		}
		if df.Cycles != ws.Cycles {
			t.Errorf("%s: dataflow must not change cycles", df.Model)
		}
		if ws.EnergyUJ <= df.EnergyUJ {
			t.Errorf("%s: weight-stationary should cost more movement energy", df.Model)
		}
	}
	if !strings.Contains(FormatDataflow(rows), "depth-first") {
		t.Error("format")
	}
}

func TestEnergyRefinement(t *testing.T) {
	rows := EnergyRefinement()
	if len(rows) != 4 {
		t.Fatal("one row per benchmark")
	}
	for _, r := range rows {
		if r.GatedMJ > r.FlatMJ*1.001 {
			t.Errorf("%s: gating cannot exceed flat", r.Model)
		}
		if r.SRAMMJ <= 0 {
			t.Errorf("%s: SRAM energy must be positive", r.Model)
		}
	}
	if !strings.Contains(FormatEnergy(rows), "savings") {
		t.Error("format")
	}
}

func TestFormatLink(t *testing.T) {
	out := FormatLink(LinkBudgets())
	if !strings.Contains(out, "Ng=9") || !strings.Contains(out, "Ng=27") {
		t.Error("link report should cover both designs")
	}
	if !strings.Contains(out, "channel plan") {
		t.Error("link report should include the channel plan")
	}
}

func TestFeasibilityReport(t *testing.T) {
	rows := FeasibilityReport()
	if len(rows) != 4 {
		t.Fatal("one row per benchmark")
	}
	byName := map[string]FeasibilityRow{}
	for _, r := range rows {
		byName[r.Model] = r
	}
	// VGG16's fc1 kernel (25088 B) cannot fit the 16 kB cache; fc2/fc3
	// (4096 B) can.
	if byName["VGG16"].CacheMisfits != 1 {
		t.Errorf("VGG16 cache misfits = %d, want 1 (fc1)", byName["VGG16"].CacheMisfits)
	}
	// Only VGG16 (224x224x64 = 3.2 MB) and MobileNet (112x112x32 =
	// 401 kB) have early activations beyond the 256 kB buffer; AlexNet
	// and ResNet18 downsample aggressively enough to fit throughout.
	if byName["VGG16"].BufferMisfits == 0 || byName["MobileNet"].BufferMisfits == 0 {
		t.Error("VGG16 and MobileNet should have buffer misfits")
	}
	if byName["AlexNet"].BufferMisfits != 0 || byName["ResNet18"].BufferMisfits != 0 {
		t.Error("AlexNet and ResNet18 activations fit the 256 kB buffer everywhere")
	}
	if !strings.Contains(FormatFeasibility(rows), "kernel-cache-misfits") {
		t.Error("format")
	}
}

func TestFormatLayers(t *testing.T) {
	out := FormatLayers(Layers(coreDefault(), mustVGG()))
	if !strings.Contains(out, "conv1_1") || !strings.Contains(out, "fc3") {
		t.Error("per-layer table should list every compute layer")
	}
}

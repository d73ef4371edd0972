package experiments

import (
	"encoding/json"
	"io"

	"albireo/internal/core"
	"albireo/internal/units"
)

// Export: every experiment's structured rows serialize to JSON for
// downstream tooling. The albireo-figures CLI exposes it with -json.

// WriteJSON writes any value as indented JSON.
func WriteJSON(w io.Writer, rows interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// Dataset bundles every experiment's structured rows, for a one-shot
// machine-readable dump of the full reproduction.
type Dataset struct {
	Fig3     []Fig3Row
	Fig4a    []Fig4aRow
	Fig4b    []Fig4bRow
	Fig4c    []Fig4cRow
	Fig8     []Fig8Row
	Fig9     []Fig9Row
	TableI   []TableIRow
	TableIV  []TableIVRow
	Dataflow []DataflowRow
	Energy   []EnergyRow
}

// CollectDataset regenerates everything into one structure.
func CollectDataset() Dataset {
	return Dataset{
		Fig3:     Fig3(DefaultFig3Params()),
		Fig4a:    Fig4a([]float64{0.02, 0.03, 0.05, 0.1}, 2*units.Nano, 41),
		Fig4b:    Fig4b([]float64{0.02, 0.03, 0.05}, []float64{5 * units.Giga, 10 * units.Giga, 20 * units.Giga, 40 * units.Giga}),
		Fig4c:    Fig4c([]float64{0.02, 0.03, 0.05}, 40),
		Fig8:     Fig8(),
		Fig9:     fig9Default(),
		TableI:   TableI(),
		TableIV:  TableIV(),
		Dataflow: DataflowComparison(),
		Energy:   EnergyRefinement(),
	}
}

func fig9Default() []Fig9Row {
	return Fig9(core.DefaultConfig())
}

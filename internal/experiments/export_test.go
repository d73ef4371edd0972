package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestWriteCSVRoundTrip(t *testing.T) {
	rows := TableI()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header plus one record per row.
	if len(records) != len(rows)+1 {
		t.Fatalf("records = %d, want %d", len(records), len(rows)+1)
	}
	if records[0][0] != "Device" || records[0][1] != "Conservative" {
		t.Errorf("header = %v", records[0])
	}
	// The MRR conservative power appears in the first data row.
	if records[1][0] != "MRR" || !strings.HasPrefix(records[1][1], "0.0031") {
		t.Errorf("first row = %v", records[1])
	}
}

func TestWriteCSVMixedTypes(t *testing.T) {
	type row struct {
		Name  string
		Count int
		Ratio float64
		OK    bool
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []row{{"x", 3, 1.5, true}}); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "x,3,1.5,true") {
		t.Errorf("csv = %q", got)
	}
}

func TestWriteCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, 42); err == nil {
		t.Error("non-slice should error")
	}
	if err := WriteCSV(&buf, []int{1, 2}); err == nil {
		t.Error("non-struct elements should error")
	}
	if err := WriteCSV(&buf, []TableIRow{}); err != nil {
		t.Error("empty slice is fine (no output)")
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, TableI()); err != nil {
		t.Fatal(err)
	}
	var back []TableIRow
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 6 || back[0].Device != "MRR" {
		t.Error("JSON round trip mismatch")
	}
}

func TestCollectDataset(t *testing.T) {
	ds := CollectDataset()
	if len(ds.Fig3) == 0 || len(ds.Fig4c) == 0 || len(ds.Fig8) != 16 ||
		len(ds.Fig9) == 0 || len(ds.TableI) != 6 || len(ds.TableIV) != 12 ||
		len(ds.Dataflow) != 8 || len(ds.Energy) != 4 {
		t.Error("dataset should contain every experiment's rows")
	}
	// The whole dataset serializes.
	var buf bytes.Buffer
	if err := WriteJSON(&buf, ds); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 1000 {
		t.Error("dataset JSON implausibly small")
	}
}

// No binary uses the declarations below; they live with the tests
// that check them.

// WriteCSV writes any slice of flat structs as CSV with a header row
// derived from the field names.
func WriteCSV(w io.Writer, rows interface{}) error {
	v := reflect.ValueOf(rows)
	if v.Kind() != reflect.Slice {
		return fmt.Errorf("experiments: WriteCSV wants a slice, got %T", rows)
	}
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if v.Len() == 0 {
		return nil
	}
	et := v.Index(0).Type()
	if et.Kind() != reflect.Struct {
		return fmt.Errorf("experiments: WriteCSV wants structs, got %s", et)
	}
	header := make([]string, et.NumField())
	for i := 0; i < et.NumField(); i++ {
		header[i] = et.Field(i).Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for r := 0; r < v.Len(); r++ {
		rec := make([]string, et.NumField())
		for i := 0; i < et.NumField(); i++ {
			rec[i] = formatField(v.Index(r).Field(i))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// formatField stringifies one struct field for CSV.
func formatField(f reflect.Value) string {
	switch f.Kind() {
	case reflect.Float64, reflect.Float32:
		return strconv.FormatFloat(f.Float(), 'g', 10, 64)
	case reflect.Int, reflect.Int64, reflect.Int32:
		return strconv.FormatInt(f.Int(), 10)
	case reflect.Bool:
		return strconv.FormatBool(f.Bool())
	case reflect.String:
		return f.String()
	default:
		return fmt.Sprint(f.Interface())
	}
}

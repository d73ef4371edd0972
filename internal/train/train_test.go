package train

import (
	"math"
	"testing"

	"albireo/internal/core"
	"albireo/internal/inference"
	"albireo/internal/tensor"
)

func TestSoftmaxCrossEntropy(t *testing.T) {
	// Uniform logits: loss is log(C) and gradients sum to zero.
	logits := []float64{0, 0, 0}
	loss, grad := SoftmaxCrossEntropy(logits, 1)
	if math.Abs(loss-math.Log(3)) > 1e-12 {
		t.Errorf("uniform loss = %g, want ln 3", loss)
	}
	var sum float64
	for _, g := range grad {
		sum += g
	}
	if math.Abs(sum) > 1e-12 {
		t.Error("softmax gradient components must sum to zero")
	}
	// Confident correct prediction: near-zero loss.
	loss, _ = SoftmaxCrossEntropy([]float64{10, -10, -10}, 0)
	if loss > 1e-6 {
		t.Errorf("confident correct loss = %g", loss)
	}
	// Numerical stability with huge logits.
	loss, _ = SoftmaxCrossEntropy([]float64{1e4, 0}, 0)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Error("softmax must be stable for large logits")
	}
}

func TestSoftmaxPanicsOnBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad label should panic")
		}
	}()
	SoftmaxCrossEntropy([]float64{1, 2}, 5)
}

func TestConvBackwardNumericalGradient(t *testing.T) {
	// Finite-difference check of the convolution weight gradient.
	a := tensor.RandomVolume(2, 5, 5, 31)
	w := tensor.RandomKernels(2, 2, 3, 3, 32)
	// Loss = sum of outputs (dOut = ones).
	out := tensor.Conv(a, w, tensor.ConvConfig{Pad: 1})
	dOut := tensor.NewVolume(out.Z, out.Y, out.X)
	for i := range dOut.Data {
		dOut.Data[i] = 1
	}
	dW, dA := convBackward(a, w, dOut, 1)

	sumOut := func() float64 {
		o := tensor.Conv(a, w, tensor.ConvConfig{Pad: 1})
		var s float64
		for _, v := range o.Data {
			s += v
		}
		return s
	}
	const eps = 1e-6
	for _, i := range []int{0, 7, 17, len(w.Data) - 1} {
		orig := w.Data[i]
		w.Data[i] = orig + eps
		plus := sumOut()
		w.Data[i] = orig - eps
		minus := sumOut()
		w.Data[i] = orig
		numeric := (plus - minus) / (2 * eps)
		if math.Abs(numeric-dW.Data[i]) > 1e-4 {
			t.Errorf("dW[%d]: numeric %.6f, analytic %.6f", i, numeric, dW.Data[i])
		}
	}
	for _, i := range []int{0, 11, len(a.Data) - 1} {
		orig := a.Data[i]
		a.Data[i] = orig + eps
		plus := sumOut()
		a.Data[i] = orig - eps
		minus := sumOut()
		a.Data[i] = orig
		numeric := (plus - minus) / (2 * eps)
		if math.Abs(numeric-dA.Data[i]) > 1e-4 {
			t.Errorf("dA[%d]: numeric %.6f, analytic %.6f", i, numeric, dA.Data[i])
		}
	}
}

func TestFCBackwardNumericalGradient(t *testing.T) {
	a := tensor.RandomVolume(2, 3, 3, 41)
	w := tensor.RandomKernels(3, 2, 3, 3, 42)
	dLogits := []float64{0.3, -0.7, 0.4}
	dW, dA := fcBackward(a, w, dLogits)

	loss := func() float64 {
		out := tensor.FullyConnected(a, w)
		var s float64
		for i, v := range out {
			s += v * dLogits[i]
		}
		return s
	}
	const eps = 1e-6
	for _, i := range []int{0, 9, len(w.Data) - 1} {
		orig := w.Data[i]
		w.Data[i] = orig + eps
		plus := loss()
		w.Data[i] = orig - eps
		minus := loss()
		w.Data[i] = orig
		numeric := (plus - minus) / (2 * eps)
		if math.Abs(numeric-dW.Data[i]) > 1e-5 {
			t.Errorf("dW[%d]: numeric %.6f, analytic %.6f", i, numeric, dW.Data[i])
		}
	}
	for _, i := range []int{0, len(a.Data) - 1} {
		orig := a.Data[i]
		a.Data[i] = orig + eps
		plus := loss()
		a.Data[i] = orig - eps
		minus := loss()
		a.Data[i] = orig
		numeric := (plus - minus) / (2 * eps)
		if math.Abs(numeric-dA.Data[i]) > 1e-5 {
			t.Errorf("dA[%d]: numeric %.6f, analytic %.6f", i, numeric, dA.Data[i])
		}
	}
}

func TestMaxPoolRoundTrip(t *testing.T) {
	a := tensor.RandomVolume(2, 4, 4, 51)
	out, idx := maxPoolForward(a)
	if out.Y != 2 || out.X != 2 || len(idx) != 8 {
		t.Fatal("pool shapes")
	}
	// Forward matches the tensor reference.
	want := tensor.MaxPool(a, 2, 2)
	for i := range want.Data {
		if out.Data[i] != want.Data[i] {
			t.Fatal("pool forward mismatch")
		}
	}
	// Backward routes each gradient to the recorded winner only.
	dOut := tensor.NewVolume(2, 2, 2)
	for i := range dOut.Data {
		dOut.Data[i] = float64(i + 1)
	}
	dIn := maxPoolBackward(dOut, idx, a)
	var nz int
	for _, v := range dIn.Data {
		if v != 0 {
			nz++
		}
	}
	if nz != 8 {
		t.Errorf("pool backward should touch exactly 8 winners, got %d", nz)
	}
}

func TestSyntheticDatasetProperties(t *testing.T) {
	xs, labels := SyntheticDataset(90, 12, 5)
	if len(xs) != 90 || len(labels) != 90 {
		t.Fatal("dataset size")
	}
	seen := map[int]int{}
	for i, x := range xs {
		seen[labels[i]]++
		for _, v := range x.Data {
			if v < 0 || v > 1 {
				t.Fatal("pixels must stay in [0,1] (optical encoding)")
			}
		}
	}
	for c := 0; c < 3; c++ {
		if seen[c] < 10 {
			t.Errorf("class %d underrepresented: %d", c, seen[c])
		}
	}
	// Deterministic for a seed.
	xs2, _ := SyntheticDataset(90, 12, 5)
	for i := range xs2[0].Data {
		if xs[0].Data[i] != xs2[0].Data[i] {
			t.Fatal("dataset must be deterministic per seed")
		}
	}
}

func TestTrainingConverges(t *testing.T) {
	// The CNN must learn the synthetic task to high accuracy - the
	// substrate check for every analog-accuracy experiment.
	xs, labels := SyntheticDataset(150, 12, 8)
	net := NewSmallNet(12, 3, 9)
	before := net.Accuracy(xs, labels)
	acc := net.Train(xs, labels, DefaultHyper())
	if acc < 0.9 {
		t.Fatalf("training accuracy = %.2f, want >= 0.9 (started at %.2f)", acc, before)
	}
	if acc <= before {
		t.Error("training should improve accuracy")
	}
	// Generalization to fresh samples.
	testX, testY := SyntheticDataset(60, 12, 99)
	if g := net.Accuracy(testX, testY); g < 0.85 {
		t.Errorf("test accuracy = %.2f, want >= 0.85", g)
	}
}

func TestTrainedModelOnAnalogChip(t *testing.T) {
	// The headline experiment: a trained model keeps (nearly) its
	// accuracy when executed on the impaired analog chip.
	xs, labels := SyntheticDataset(150, 12, 8)
	net := NewSmallNet(12, 3, 9)
	net.Train(xs, labels, DefaultHyper())

	testX, testY := SyntheticDataset(60, 12, 123)
	exactAcc := AnalogAccuracy(net, inference.Exact{}, testX, testY)

	analog := inference.NewAnalog(core.DefaultConfig())
	analogAcc := AnalogAccuracy(net, analog, testX, testY)

	if exactAcc < 0.85 {
		t.Fatalf("exact deployment accuracy = %.2f, substrate problem", exactAcc)
	}
	if analogAcc < exactAcc-0.15 {
		t.Errorf("analog accuracy %.2f fell more than 15 points below exact %.2f",
			analogAcc, exactAcc)
	}
}

func TestNewSmallNetValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-multiple-of-4 size should panic")
		}
	}()
	NewSmallNet(10, 3, 1)
}

func TestTrainMismatchedPanics(t *testing.T) {
	net := NewSmallNet(12, 3, 1)
	defer func() {
		if recover() == nil {
			t.Error("mismatched dataset should panic")
		}
	}()
	net.Train(make([]*tensor.Volume, 2), []int{0}, DefaultHyper())
}

package main

import (
	"fmt"

	"albireo/internal/inference"
	"albireo/internal/nn"
	"albireo/internal/tensor"
)

// builder assembles a functional inference.Network and the nn.Model
// the performance model prices from one description, so the modeled
// hardware cost always describes the network the simulator runs.
type builder struct {
	seed    int64 // next weight seed
	z, y, x int   // current activation shape
	layers  []nn.Layer
}

func newBuilder(seed int64, z, size int) *builder {
	return &builder{seed: seed, z: z, y: size, x: size}
}

func (b *builder) kernels(m, z, k int) *tensor.Kernels {
	b.seed++
	return tensor.RandomKernels(m, z, k, k, b.seed)
}

// conv adds a dense k x k convolution with out kernels. A 1x1, stride
// 1, unpadded convolution is a pointwise layer, which is also how the
// analog backend routes it.
func (b *builder) conv(name string, out, k, stride, pad int, relu bool) inference.Op {
	kind := nn.Conv
	if k == 1 && stride == 1 && pad == 0 {
		kind = nn.Pointwise
	}
	l := nn.Layer{Name: name, Kind: kind, InZ: b.z, InY: b.y, InX: b.x, OutZ: out, KY: k, KX: k, Stride: stride, Pad: pad}
	op := inference.ConvOp{Kernels: b.kernels(out, b.z, k), Cfg: tensor.ConvConfig{Stride: stride, Pad: pad}, ReLU: relu}
	b.add(l)
	return op
}

// depthwise adds a 3x3 depthwise convolution.
func (b *builder) depthwise(name string, stride int) inference.Op {
	l := nn.Layer{Name: name, Kind: nn.Depthwise, InZ: b.z, InY: b.y, InX: b.x, OutZ: b.z, KY: 3, KX: 3, Stride: stride, Pad: 1}
	op := inference.ConvOp{Kernels: b.kernels(b.z, 1, 3), Cfg: tensor.ConvConfig{Stride: stride, Pad: 1, Depthwise: true}, ReLU: true}
	b.add(l)
	return op
}

// pool adds a pooling layer over window x window tiles.
func (b *builder) pool(name string, max bool, window int) inference.Op {
	kind := nn.AvgPoolKind
	if max {
		kind = nn.MaxPoolKind
	}
	b.add(nn.Layer{Name: name, Kind: kind, InZ: b.z, InY: b.y, InX: b.x, OutZ: b.z, KY: window, KX: window, Stride: window})
	return inference.PoolOp{Max: max, Window: window, Stride: window}
}

// residual adds a basic block: two 3x3 convolutions, the first at
// stride, with a 1x1 projection shortcut when the shape changes.
func (b *builder) residual(name string, out, stride int) inference.Op {
	z, y, x := b.z, b.y, b.x
	body := []inference.Op{
		b.conv(name+"_conv1", out, 3, stride, 1, true),
		b.conv(name+"_conv2", out, 3, 1, 1, false),
	}
	var shortcut inference.Op
	if stride != 1 || out != z {
		oz, oy, ox := b.z, b.y, b.x
		b.z, b.y, b.x = z, y, x
		shortcut = b.conv(name+"_proj", out, 1, stride, 0, false)
		b.layers[len(b.layers)-1].Branch = true
		b.z, b.y, b.x = oz, oy, ox
	}
	return inference.ResidualOp{Body: body, Shortcut: shortcut}
}

// classifier adds the fully-connected head over the whole volume.
func (b *builder) classifier(classes int) *tensor.Kernels {
	b.seed++
	k := tensor.RandomKernels(classes, b.z, b.y, b.x, b.seed)
	b.add(nn.Layer{Name: "fc", Kind: nn.FC, InZ: b.z, InY: b.y, InX: b.x, OutZ: classes, KY: 1, KX: 1})
	return k
}

func (b *builder) add(l nn.Layer) {
	b.layers = append(b.layers, l)
	if l.Kind == nn.FC {
		b.z, b.y, b.x = l.OutZ, 1, 1
		return
	}
	b.z, b.y, b.x = l.OutZ, l.OutY(), l.OutX()
}

// cnn is a functional network with its performance-model descriptor.
type cnn struct {
	net   *inference.Network
	model nn.Model
	inZ   int
	size  int
}

// resNet18 is the ResNet18 topology at the given channel width per
// stage: a 3x3 stem, four stages of two basic blocks (stride-2 entry
// with a projection shortcut from stage 2 on), average pooling, and a
// 10-class head.
func resNet18(widths [4]int, size int, seed int64) cnn {
	b := newBuilder(seed, 3, size)
	ops := []inference.Op{b.conv("stem", widths[0], 3, 1, 1, true)}
	for s, w := range widths {
		stride := 2
		if s == 0 {
			stride = 1
		}
		ops = append(ops,
			b.residual(fmt.Sprintf("s%d_b1", s+1), w, stride),
			b.residual(fmt.Sprintf("s%d_b2", s+1), w, 1))
	}
	ops = append(ops, b.pool("avgpool", false, b.y))
	head := b.classifier(10)
	return cnn{
		net:   &inference.Network{Name: "resnet18", Ops: ops, Classifier: head},
		model: nn.Model{Name: "ResNet18", Layers: b.layers},
		inZ:   3, size: size,
	}
}

// mobileNetV1 is the MobileNet v1 topology with every channel count
// scaled by width/32 (width 32 is the published model): a stride-2
// stem, 13 depthwise + pointwise blocks, average pooling, and a
// 10-class head.
func mobileNetV1(width, size int, seed int64) cnn {
	scale := func(c int) int { return c * width / 32 }
	b := newBuilder(seed, 3, size)
	ops := []inference.Op{b.conv("stem", scale(32), 3, 2, 1, true)}
	blocks := []struct{ out, stride int }{
		{64, 1}, {128, 2}, {128, 1}, {256, 2}, {256, 1}, {512, 2},
		{512, 1}, {512, 1}, {512, 1}, {512, 1}, {512, 1}, {1024, 2}, {1024, 1},
	}
	for i, blk := range blocks {
		ops = append(ops,
			b.depthwise(fmt.Sprintf("dw%d", i+1), blk.stride),
			b.conv(fmt.Sprintf("pw%d", i+1), scale(blk.out), 1, 1, 0, true))
	}
	ops = append(ops, b.pool("avgpool", false, b.y))
	head := b.classifier(10)
	return cnn{
		net:   &inference.Network{Name: "mobilenet-v1", Ops: ops, Classifier: head},
		model: nn.Model{Name: "MobileNet", Layers: b.layers},
		inZ:   3, size: size,
	}
}

// tinyCNN is the model albireo-serve serves on /v1/infer, with its
// descriptor; the builder's own kernels are discarded in favour of
// inference.TinyCNN's, so the served weights match albireo-serve.
func tinyCNN(size int, seed int64) cnn {
	b := newBuilder(0, 3, size)
	b.conv("conv1", 8, 3, 1, 1, true)
	b.pool("pool1", true, 2)
	b.conv("conv2", 16, 3, 1, 1, true)
	b.pool("pool2", true, 2)
	b.classifier(10)
	return cnn{
		net:   inference.TinyCNN(3, size, seed),
		model: nn.Model{Name: "TinyCNN", Layers: b.layers},
		inZ:   3, size: size,
	}
}

// gemmSpec sizes the gemm-zoo request: one transformer encoder block
// and one LSTM cell unrolled over a short sequence.
type gemmSpec struct {
	seq, dim, ffn         int
	lstmIn, hidden, batch int
	steps                 int
}

// gemmZoo holds the encoder block and the LSTM of one gemm-zoo model.
type gemmZoo struct {
	spec       gemmSpec
	q, k, v, o *nn.MLP
	ffn        *nn.MLP
	lstm       *nn.LSTM
	model      nn.Model
}

func newGEMMZoo(s gemmSpec, seed int64) *gemmZoo {
	proj := func(name string, off int64) *nn.MLP { return nn.NewMLP(name, []int{s.dim, s.dim}, seed+off) }
	z := &gemmZoo{
		spec: s,
		q:    proj("q-proj", 10), k: proj("k-proj", 20), v: proj("v-proj", 30), o: proj("out-proj", 40),
		ffn:  nn.NewMLP("ffn", []int{s.dim, s.ffn, s.dim}, seed+50),
		lstm: nn.NewLSTM("lstm", s.lstmIn, s.hidden, seed+60),
	}
	var layers []nn.Layer
	for _, p := range []*nn.MLP{z.q, z.k, z.v} {
		layers = append(layers, p.Layers(s.seq)...)
	}
	layers = append(layers, nn.AttentionLayer("attn", s.seq, s.dim))
	layers = append(layers, z.o.Layers(s.seq)...)
	layers = append(layers, z.ffn.Layers(s.seq)...)
	// The descriptor models a batch-1 recurrence, so a batch of
	// sequences is priced as their concatenation.
	layers = append(layers, z.lstm.Layer(s.batch*s.steps))
	z.model = nn.Model{Name: "GEMM-Zoo", Layers: layers}
	return z
}

// gemmInput is one gemm-zoo request: the encoder input and the LSTM
// input sequence.
type gemmInput struct {
	x  *tensor.Matrix
	xs []*tensor.Matrix
}

func (z *gemmZoo) input(seed int64) gemmInput {
	in := gemmInput{x: tensor.RandomMatrix(z.spec.seq, z.spec.dim, seed)}
	for t := 0; t < z.spec.steps; t++ {
		in.xs = append(in.xs, tensor.RandomMatrix(z.spec.batch, z.spec.lstmIn, seed+1+int64(t)))
	}
	return in
}

// run executes one request: the encoder block (Q/K/V projections,
// attention, output projection, feed-forward) and the unrolled LSTM,
// each block under its own span. It returns the encoder output and the
// final hidden state.
func (z *gemmZoo) run(be nn.GEMMExecutor, in gemmInput, sc *scope) (*tensor.Matrix, *tensor.Matrix) {
	var q, k, v, a, out, h *tensor.Matrix
	sc.span("nn/mlp", func() { q, k, v = z.q.Forward(be, in.x), z.k.Forward(be, in.x), z.v.Forward(be, in.x) })
	sc.span("nn/attention", func() { a = nn.Attention(be, q, k, v) })
	sc.span("nn/mlp", func() { out = z.ffn.Forward(be, z.o.Forward(be, a)) })
	sc.span("nn/lstm", func() { h, _ = z.lstm.Run(be, in.xs) })
	return out, h
}

#include "src/graph/model_zoo.h"

#include "src/util/check.h"
#include "src/util/status.h"

namespace harmony {

double OptimizerStateFactor(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kSgd:
      return 0.0;
    case OptimizerKind::kMomentum:
      return 1.0;
    case OptimizerKind::kAdam:
      return 2.0;
  }
  return 0.0;
}

Model MakeTransformerLm(const TransformerConfig& config) {
  HCHECK_GT(config.num_layers, 0);
  const double s = static_cast<double>(config.seq_len);
  const double h = static_cast<double>(config.hidden);
  const double dtype = static_cast<double>(config.dtype_bytes);
  const double opt_factor = OptimizerStateFactor(config.optimizer);

  // Input: token ids, 8 bytes per token (id + position).
  Model model(config.name, static_cast<Bytes>(s * 8.0));

  // Embedding (tied with the LM head, so it owns the full vocab matrix once).
  {
    Layer embed;
    embed.name = "embedding";
    embed.kind = LayerKind::kEmbedding;
    embed.cost.param_bytes =
        static_cast<Bytes>(static_cast<double>(config.vocab) * h * dtype);
    embed.cost.grad_bytes = embed.cost.param_bytes;
    embed.cost.opt_state_bytes =
        static_cast<Bytes>(static_cast<double>(embed.cost.param_bytes) * opt_factor);
    embed.cost.act_out_bytes_per_sample = static_cast<Bytes>(s * h * dtype);
    embed.cost.fwd_flops_per_sample = 2.0 * s * h;
    embed.cost.bwd_flops_per_sample = 4.0 * s * h;
    embed.cost.upd_flops = static_cast<double>(embed.cost.param_bytes) / dtype * 4.0;
    model.AddLayer(embed);
  }

  for (int l = 0; l < config.num_layers; ++l) {
    Layer block;
    block.name = "transformer" + std::to_string(l);
    block.kind = LayerKind::kTransformer;
    const double params = 12.0 * h * h + 13.0 * h;
    block.cost.param_bytes = static_cast<Bytes>(params * dtype);
    block.cost.grad_bytes = block.cost.param_bytes;
    block.cost.opt_state_bytes =
        static_cast<Bytes>(static_cast<double>(block.cost.param_bytes) * opt_factor);
    block.cost.act_out_bytes_per_sample = static_cast<Bytes>(s * h * dtype);
    block.cost.stash_bytes_per_sample =
        static_cast<Bytes>(config.stash_factor * s * h * dtype);
    block.cost.workspace_bytes_per_sample = static_cast<Bytes>(4.0 * s * h * dtype);
    block.cost.fwd_flops_per_sample = 24.0 * s * h * h + 4.0 * s * s * h;
    block.cost.bwd_flops_per_sample = 2.0 * block.cost.fwd_flops_per_sample;
    block.cost.upd_flops = params * 4.0;
    model.AddLayer(block);
  }
  return model;
}

Model MakeBertBase(OptimizerKind optimizer) {
  TransformerConfig config;
  config.name = "BERT-base";
  config.num_layers = 12;
  config.hidden = 768;
  config.seq_len = 512;
  config.vocab = 30522;
  config.optimizer = optimizer;
  return MakeTransformerLm(config);
}

Model MakeBertLarge(OptimizerKind optimizer) {
  TransformerConfig config;
  config.name = "BERT-large";
  config.num_layers = 24;
  config.hidden = 1024;
  config.seq_len = 512;
  config.vocab = 30522;
  config.optimizer = optimizer;
  return MakeTransformerLm(config);
}

Model MakeGpt2Xl(OptimizerKind optimizer) {
  TransformerConfig config;
  config.name = "GPT2-XL";
  config.num_layers = 48;
  config.hidden = 1600;
  config.seq_len = 1024;
  config.vocab = 50257;
  config.optimizer = optimizer;
  return MakeTransformerLm(config);
}

Model MakeUniformModel(const UniformModelConfig& config) {
  HCHECK_GT(config.num_layers, 0);
  Model model(config.name, config.act_bytes_per_sample);
  for (int l = 0; l < config.num_layers; ++l) {
    Layer layer;
    layer.name = "L";  // appended: `"L" + std::string` trips GCC 12's -Wrestrict
    layer.name.append(std::to_string(l));
    layer.kind = LayerKind::kGeneric;
    layer.cost.param_bytes = config.param_bytes;
    layer.cost.grad_bytes = config.param_bytes;
    layer.cost.opt_state_bytes =
        static_cast<Bytes>(static_cast<double>(config.param_bytes) *
                           config.optimizer_state_factor);
    layer.cost.act_out_bytes_per_sample = config.act_bytes_per_sample;
    layer.cost.stash_bytes_per_sample = config.stash_bytes_per_sample;
    layer.cost.workspace_bytes_per_sample = config.workspace_bytes_per_sample;
    layer.cost.fwd_flops_per_sample = config.fwd_flops_per_sample;
    layer.cost.bwd_flops_per_sample = 2.0 * config.fwd_flops_per_sample;
    layer.cost.upd_flops = static_cast<double>(config.param_bytes) / 4.0 * 4.0;
    model.AddLayer(layer);
  }
  return model;
}

Model MakeMlp(const std::vector<int>& dims, Bytes dtype_bytes) {
  HCHECK_GE(dims.size(), 2u);
  Model model("mlp", static_cast<Bytes>(dims[0]) * dtype_bytes);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const Bytes in = dims[l];
    const Bytes out = dims[l + 1];
    Layer layer;
    layer.name = "linear" + std::to_string(l);
    layer.kind = LayerKind::kLinear;
    layer.cost.param_bytes = (in * out + out) * dtype_bytes;  // weights + bias
    layer.cost.grad_bytes = layer.cost.param_bytes;
    layer.cost.opt_state_bytes = 0;  // plain SGD in the numeric substrate
    layer.cost.act_out_bytes_per_sample = out * dtype_bytes;
    layer.cost.fwd_flops_per_sample = 2.0 * static_cast<double>(in * out);
    layer.cost.bwd_flops_per_sample = 4.0 * static_cast<double>(in * out);
    layer.cost.upd_flops = static_cast<double>(in * out + out);
    model.AddLayer(layer);
  }
  return model;
}

std::vector<CatalogueEntry> Fig1Catalogue() {
  return {
      {"LeNet", 1998, 60'000, "image classification"},
      {"AlexNet", 2012, 61'000'000, "image classification"},
      {"GNMT", 2016, 278'000'000, "translation / language modeling"},
      {"AmoebaNet", 2018, 557'000'000, "image classification"},
      {"GPT-2", 2019, 1'500'000'000, "language modeling"},
      {"T5", 2019, 11'000'000'000, "language modeling"},
      {"GPT-3", 2020, 175'000'000'000, "language modeling"},
  };
}

void AddConvLayer(Model* model, const std::string& name, const ConvLayerSpec& spec,
                  double opt_factor, Bytes dtype_bytes) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kConv;
  const double params = static_cast<double>(spec.kernel) * spec.kernel * spec.in_channels *
                            spec.out_channels +
                        spec.out_channels;
  const double map = static_cast<double>(spec.out_height) * spec.out_width;
  layer.cost.param_bytes = static_cast<Bytes>(params * static_cast<double>(dtype_bytes));
  layer.cost.grad_bytes = layer.cost.param_bytes;
  layer.cost.opt_state_bytes =
      static_cast<Bytes>(static_cast<double>(layer.cost.param_bytes) * opt_factor);
  layer.cost.act_out_bytes_per_sample = static_cast<Bytes>(
      static_cast<double>(spec.out_channels) * map * static_cast<double>(dtype_bytes));
  // im2col-style workspace plus pre-activation stash.
  layer.cost.stash_bytes_per_sample = layer.cost.act_out_bytes_per_sample;
  layer.cost.workspace_bytes_per_sample = 2 * layer.cost.act_out_bytes_per_sample;
  layer.cost.fwd_flops_per_sample = 2.0 * params * map;
  layer.cost.bwd_flops_per_sample = 2.0 * layer.cost.fwd_flops_per_sample;
  layer.cost.upd_flops = params * 4.0;
  model->AddLayer(layer);
}

void AddFcLayer(Model* model, const std::string& name, const FcLayerSpec& spec,
                double opt_factor, Bytes dtype_bytes) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kLinear;
  const double params =
      static_cast<double>(spec.in_features) * spec.out_features + spec.out_features;
  layer.cost.param_bytes = static_cast<Bytes>(params * static_cast<double>(dtype_bytes));
  layer.cost.grad_bytes = layer.cost.param_bytes;
  layer.cost.opt_state_bytes =
      static_cast<Bytes>(static_cast<double>(layer.cost.param_bytes) * opt_factor);
  layer.cost.act_out_bytes_per_sample = static_cast<Bytes>(spec.out_features) * dtype_bytes;
  layer.cost.fwd_flops_per_sample = 2.0 * params;
  layer.cost.bwd_flops_per_sample = 4.0 * params;
  layer.cost.upd_flops = params * 4.0;
  model->AddLayer(layer);
}

void AddLstmLayer(Model* model, const std::string& name, int input_size, int hidden_size,
                  int seq_len, double opt_factor, Bytes dtype_bytes) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kGeneric;
  const double h = hidden_size;
  const double params = 4.0 * h * (static_cast<double>(input_size) + h + 1.0);
  layer.cost.param_bytes = static_cast<Bytes>(params * static_cast<double>(dtype_bytes));
  layer.cost.grad_bytes = layer.cost.param_bytes;
  layer.cost.opt_state_bytes =
      static_cast<Bytes>(static_cast<double>(layer.cost.param_bytes) * opt_factor);
  layer.cost.act_out_bytes_per_sample =
      static_cast<Bytes>(static_cast<double>(seq_len) * h * static_cast<double>(dtype_bytes));
  // Gate pre-activations (i, f, g, o) stashed per timestep for BPTT.
  layer.cost.stash_bytes_per_sample = 4 * layer.cost.act_out_bytes_per_sample;
  layer.cost.workspace_bytes_per_sample = layer.cost.act_out_bytes_per_sample;
  layer.cost.fwd_flops_per_sample = 2.0 * params * static_cast<double>(seq_len);
  layer.cost.bwd_flops_per_sample = 2.0 * layer.cost.fwd_flops_per_sample;
  layer.cost.upd_flops = params * 4.0;
  model->AddLayer(layer);
}

Model MakeLeNet(OptimizerKind optimizer) {
  const double opt = OptimizerStateFactor(optimizer);
  Model model("LeNet", /*input: 32x32x1 image*/ 32 * 32 * 4);
  AddConvLayer(&model, "conv1", ConvLayerSpec{1, 6, 5, 28, 28}, opt);
  AddConvLayer(&model, "conv2", ConvLayerSpec{6, 16, 5, 10, 10}, opt);
  AddFcLayer(&model, "fc3", FcLayerSpec{400, 120}, opt);
  AddFcLayer(&model, "fc4", FcLayerSpec{120, 84}, opt);
  AddFcLayer(&model, "fc5", FcLayerSpec{84, 10}, opt);
  return model;
}

Model MakeAlexNet(OptimizerKind optimizer) {
  const double opt = OptimizerStateFactor(optimizer);
  Model model("AlexNet", /*input: 227x227x3 image*/ 227 * 227 * 3 * 4);
  AddConvLayer(&model, "conv1", ConvLayerSpec{3, 96, 11, 55, 55}, opt);
  AddConvLayer(&model, "conv2", ConvLayerSpec{96, 256, 5, 27, 27}, opt);
  AddConvLayer(&model, "conv3", ConvLayerSpec{256, 384, 3, 13, 13}, opt);
  AddConvLayer(&model, "conv4", ConvLayerSpec{384, 384, 3, 13, 13}, opt);
  AddConvLayer(&model, "conv5", ConvLayerSpec{384, 256, 3, 13, 13}, opt);
  AddFcLayer(&model, "fc6", FcLayerSpec{9216, 4096}, opt);
  AddFcLayer(&model, "fc7", FcLayerSpec{4096, 4096}, opt);
  AddFcLayer(&model, "fc8", FcLayerSpec{4096, 1000}, opt);
  return model;
}

Model MakeGnmt(OptimizerKind optimizer) {
  const double opt = OptimizerStateFactor(optimizer);
  const int seq = 64;
  const int h = 1024;
  const int vocab = 36000;
  Model model("GNMT", static_cast<Bytes>(seq) * 8);
  // Source embedding.
  {
    Layer embed;
    embed.name = "src-embedding";
    embed.kind = LayerKind::kEmbedding;
    embed.cost.param_bytes = static_cast<Bytes>(vocab) * h * 4;
    embed.cost.grad_bytes = embed.cost.param_bytes;
    embed.cost.opt_state_bytes =
        static_cast<Bytes>(static_cast<double>(embed.cost.param_bytes) * opt);
    embed.cost.act_out_bytes_per_sample = static_cast<Bytes>(seq) * h * 4;
    embed.cost.fwd_flops_per_sample = 2.0 * seq * h;
    embed.cost.bwd_flops_per_sample = 4.0 * seq * h;
    embed.cost.upd_flops = static_cast<double>(vocab) * h;
    model.AddLayer(embed);
  }
  // Encoder: bidirectional layer 1 (two directions) + 7 stacked layers.
  AddLstmLayer(&model, "enc-bi-lstm1-fwd", h, h, seq, opt);
  AddLstmLayer(&model, "enc-bi-lstm1-rev", h, h, seq, opt);
  AddLstmLayer(&model, "enc-lstm2", 2 * h, h, seq, opt);
  for (int l = 3; l <= 8; ++l) {
    AddLstmLayer(&model, "enc-lstm" + std::to_string(l), h, h, seq, opt);
  }
  // Target embedding + attention-augmented decoder layer 1.
  {
    Layer embed;
    embed.name = "tgt-embedding";
    embed.kind = LayerKind::kEmbedding;
    embed.cost.param_bytes = static_cast<Bytes>(vocab) * h * 4;
    embed.cost.grad_bytes = embed.cost.param_bytes;
    embed.cost.opt_state_bytes =
        static_cast<Bytes>(static_cast<double>(embed.cost.param_bytes) * opt);
    embed.cost.act_out_bytes_per_sample = static_cast<Bytes>(seq) * h * 4;
    embed.cost.fwd_flops_per_sample = 2.0 * seq * h;
    embed.cost.bwd_flops_per_sample = 4.0 * seq * h;
    embed.cost.upd_flops = static_cast<double>(vocab) * h;
    model.AddLayer(embed);
  }
  AddLstmLayer(&model, "dec-lstm1+attn", 2 * h, h, seq, opt);
  for (int l = 2; l <= 8; ++l) {
    AddLstmLayer(&model, "dec-lstm" + std::to_string(l), h, h, seq, opt);
  }
  // Output projection (softmax weights).
  AddFcLayer(&model, "softmax", FcLayerSpec{h, vocab}, opt);
  return model;
}

Model MakeAmoebaNet(OptimizerKind optimizer) {
  // AmoebaNet's NAS cells are approximated by a deep conv stack matching the published
  // 557M-parameter budget; what matters to the scheduler is the per-layer state/compute
  // profile, not the exact cell wiring.
  const double opt = OptimizerStateFactor(optimizer);
  Model model("AmoebaNet", 224 * 224 * 3 * 4);
  AddConvLayer(&model, "stem", ConvLayerSpec{3, 256, 3, 112, 112}, opt);
  for (int cell = 0; cell < 18; ++cell) {
    AddConvLayer(&model, "cell" + std::to_string(cell), ConvLayerSpec{1856, 1856, 3, 14, 14},
                 opt);
  }
  AddFcLayer(&model, "classifier", FcLayerSpec{1856, 1000}, opt);
  return model;
}

StatusOr<Model> ModelByName(const std::string& name) {
  if (name == "lenet") {
    return MakeLeNet();
  }
  if (name == "alexnet") {
    return MakeAlexNet();
  }
  if (name == "gnmt") {
    return MakeGnmt();
  }
  if (name == "amoebanet") {
    return MakeAmoebaNet();
  }
  if (name == "bert-base") {
    return MakeBertBase();
  }
  if (name == "bert-large") {
    return MakeBertLarge();
  }
  if (name == "gpt2-xl") {
    return MakeGpt2Xl();
  }
  if (name == "toy") {
    UniformModelConfig config;
    config.name = "toy-4layer";
    config.num_layers = 4;
    config.param_bytes = 256 * kMiB;
    config.act_bytes_per_sample = 64 * kMiB;
    config.fwd_flops_per_sample = 2e11;
    return MakeUniformModel(config);
  }
  return InvalidArgumentError("unknown model '" + name +
                              "' (try lenet, alexnet, gnmt, amoebanet, bert-base, "
                              "bert-large, gpt2-xl, toy)");
}

}  // namespace harmony

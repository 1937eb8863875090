#include "dfglib/mediabench.h"

#include "dfglib/synth.h"

namespace lwm::dfglib {

const std::vector<MediabenchApp>& mediabench_table() {
  static const std::vector<MediabenchApp> kApps = {
      {"D/A_Cnv.", 528}, {"G721", 758},    {"epic", 872},
      {"PEGWIT", 658},   {"PGP", 1755},    {"GSM", 802},
      {"JPEG.c", 1422},  {"MPEG2.d", 1372},
  };
  return kApps;
}

cdfg::Graph make_mediabench_app(const MediabenchApp& app) {
  // Media kernels: ALU-heavy with a solid memory share, light control.
  OpMix mix;
  mix.alu = 55;
  mix.mul = 12;
  mix.mem = 25;
  mix.branch = 8;
  // Seed derived from the name so every app gets a distinct, stable graph.
  // "D/A_Cnv." seeds as Table I spells it, "D/A Cnv.", the name it had
  // before graph names became single tokens, so its graph is unchanged.
  const std::string seed_name = app.name == "D/A_Cnv." ? "D/A Cnv." : app.name;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  for (const char c : seed_name) seed = seed * 131 + static_cast<unsigned char>(c);
  // Width ~ N / 60 keeps depth (and thus window widths) in a realistic
  // basic-block-trace regime for a 4-issue machine.
  const int width = std::max(4, app.operations / 60);
  return make_layered_dag(app.name, app.operations, width, mix, seed);
}

}  // namespace lwm::dfglib

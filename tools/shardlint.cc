// shardlint — the repo's one lint binary. `shardlint <pack> [flags]
// <dir-or-file>...` runs one rule pack (detlint, parlint, flowlint,
// codeclint) over the liblint core; `shardlint --rules-md` prints
// tools/lint_rules.md. Flags and exit codes: liblint::Main.

#include "packs.h"

int main(int argc, char** argv) {
  return liblint::Main(
      {DetlintPack(), ParlintPack(), FlowlintPack(), CodeclintPack()}, argc,
      argv);
}

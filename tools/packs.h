#ifndef SHARDCHAIN_TOOLS_PACKS_H_
#define SHARDCHAIN_TOOLS_PACKS_H_

// The rule packs `shardlint <pack>` dispatches to (DESIGN.md §11), each
// defined in tools/<pack>/<pack>.cc.

#include "liblint/liblint.h"

liblint::Tool DetlintPack();
liblint::Tool ParlintPack();
liblint::Tool FlowlintPack();
liblint::Tool CodeclintPack();

#endif  // SHARDCHAIN_TOOLS_PACKS_H_

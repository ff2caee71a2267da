#pragma once

#include "util/flags.h"

namespace perfbench {

int cmd_sweep(const tft::Flags& flags);
int cmd_trace(const tft::Flags& flags);
int cmd_replay(const tft::Flags& flags);

}  // namespace perfbench

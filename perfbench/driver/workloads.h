// The three workloads.  Each fills `result` with the end-to-end metrics
// (config.trace == false) or the per-layer metrics of the traced in-process
// replay (config.trace == true), plus attempted/failed counts, gate
// outcomes and run metadata.
#pragma once

#include "util.h"

namespace perfbench {

void run_wire_ingest(const RunConfig& config, RunResult* result);
void run_campaign_stream(const RunConfig& config, RunResult* result);
void run_batch_discovery(const RunConfig& config, RunResult* result);

}  // namespace perfbench

// The benchmark's workloads. Each runs in its own process, prints its
// properties and timing sample counts, and returns the final JSON line.

#ifndef KGOV_PERFBENCH_WORKLOADS_H_
#define KGOV_PERFBENCH_WORKLOADS_H_

#include <string>

#include "harness.h"

namespace kgov::perfbench {

/// helpdesk-vote on the paper-scale help-desk knowledge graph.
std::string RunHelpdesk(const Args& args, bool* correct);

/// community-stream on the ~140k-node community-locality graph.
std::string RunCommunityStream(const Args& args, bool* correct);

}  // namespace kgov::perfbench

#endif  // KGOV_PERFBENCH_WORKLOADS_H_

// Reads a checked-in golden file from tests/golden.  A test that pins an
// exporter's bytes compares its rendered output against the file and
// prints the new output on mismatch, so an intended change is regenerated
// from that message.
#pragma once

#include <fstream>
#include <sstream>
#include <string>

namespace ilp {

// The file's bytes, or "" when it is missing.
inline std::string read_golden(const std::string& name) {
    std::ifstream in(std::string(GOLDEN_DIR) + "/" + name, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

}  // namespace ilp

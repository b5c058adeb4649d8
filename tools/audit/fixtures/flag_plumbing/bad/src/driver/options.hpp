#pragma once
#include <string>

struct DriverOptions {
  std::string app = "spmv";
  int ghost_knob = 0;
  bool quiet = false;
};

#pragma once

namespace capstan::common::env {
}  // namespace capstan::common::env

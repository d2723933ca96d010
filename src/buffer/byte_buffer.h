// Owning, 8-byte-aligned byte buffer.
//
// All packet staging areas in the stack use byte_buffer so that encryption
// units (8 bytes), marshalling units (4 bytes) and checksum units (2 bytes)
// start on their natural alignment, and so the simulated cache model sees
// stable, realistic heap addresses.
//
// Two forms.  byte_buffer(n) zero-fills its storage: use it when something
// may read a byte before anything writes it.  byte_buffer::uninitialized(n)
// leaves the storage as the allocator returned it: use it for buffers whose
// every read follows a write of the same bytes (rings, staging areas, packet
// copies), which is every per-flow and per-pipe buffer of the stack.  The
// zero-fill is a pass over memory nobody reads, and a fleet of short flows
// pays it at every flow open (DESIGN §5m).
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "util/contracts.h"

namespace ilp {

class byte_buffer {
public:
    byte_buffer() = default;

    // Zero-filled storage of `size` bytes.
    explicit byte_buffer(std::size_t size) : size_(size) {
        if (size_ > 0) {
            data_.reset(new (std::align_val_t{alignment}) std::byte[size_]());
        }
    }

    // Storage of `size` bytes whose contents are indeterminate until
    // written.
    static byte_buffer uninitialized(std::size_t size) {
        byte_buffer b;
        b.size_ = size;
        if (size > 0) {
            b.data_.reset(new (std::align_val_t{alignment}) std::byte[size]);
        }
        return b;
    }

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    std::byte* data() noexcept { return data_.get(); }
    const std::byte* data() const noexcept { return data_.get(); }

    std::span<std::byte> span() noexcept { return {data_.get(), size_}; }
    std::span<const std::byte> span() const noexcept {
        return {data_.get(), size_};
    }

    std::span<std::byte> subspan(std::size_t offset, std::size_t count) {
        ILP_EXPECT(offset + count <= size_);
        return {data_.get() + offset, count};
    }
    std::span<const std::byte> subspan(std::size_t offset,
                                       std::size_t count) const {
        ILP_EXPECT(offset + count <= size_);
        return {data_.get() + offset, count};
    }

    static constexpr std::size_t alignment = 8;

private:
    struct aligned_delete {
        void operator()(std::byte* p) const noexcept {
            ::operator delete[](p, std::align_val_t{alignment});
        }
    };

    std::unique_ptr<std::byte[], aligned_delete> data_;
    std::size_t size_ = 0;
};

}  // namespace ilp

module mfz
  implicit none
  real(kind=8) :: g82 = 3.0d0
  logical :: gl1
contains
  subroutine p1(a1, a2, a3)
    real(kind=8), intent(in) :: a1
    integer :: a2
    logical :: a3
    integer :: i1
  end subroutine p1

  function p2(a1, a2, a3) result(res_)
    real(kind=8), intent(inout) :: a1
    real(kind=8), intent(out) :: a2
    real(kind=4), intent(in) :: a3
    integer :: i1
    real(kind=4) :: res_
  end function p2

  subroutine p3(a1, a2, gi1)
    logical :: a1
    integer :: a2
    integer, intent(in) :: gi1
    integer :: i1
    do i1 = 1, 3, 2
      call p1(real(p2(g82, 0.5d0, 1.5), 8), a2, .not. gl1 .or. (a1 .or. gl1))
    end do
  end subroutine p3
end module mfz

program fzmain
  use mfz
  implicit none
  integer :: i1
end program fzmain
